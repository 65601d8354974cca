# Runs one command and fails unless it exits 0 and its stdout hashes to
# EXPECT_MD5, so a pinned output that drifts by a single byte fails. The
# stdout is kept in OUT for diffing against a known-good run. ARGS, if
# given, is the command's argument string.
#
#   cmake -DEXE=<binary> ["-DARGS=<args>"] -DEXPECT_MD5=<hex> -DOUT=<file>
#         -P expect_md5.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_FILE "${OUT}"
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "exit ${code}\nstderr: ${err}")
endif()
file(MD5 "${OUT}" got)
if(NOT got STREQUAL "${EXPECT_MD5}")
  message(FATAL_ERROR "stdout md5 ${got}, pinned ${EXPECT_MD5} "
                      "(output in ${OUT})")
endif()
