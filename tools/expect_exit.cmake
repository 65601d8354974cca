# Runs one command and checks how it fails: its exit code must equal
# EXPECT_CODE and its stderr must match EXPECT_STDERR (a CMake regex).
# Unlike WILL_FAIL, a crash or the wrong error cannot pass.
#
#   cmake -DEXE=<binary> "-DARGS=<space-separated args>" -DEXPECT_CODE=2
#         "-DEXPECT_STDERR=<regex>" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit ${code}, want ${EXPECT_CODE}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
