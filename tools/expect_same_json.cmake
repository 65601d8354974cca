# Runs one command twice, with ARGS plus ARGS_A and with ARGS plus ARGS_B,
# each writing its --json document next to OUT, and fails unless both runs
# exit 0 and the two documents are byte-identical.
#
#   cmake -DEXE=<binary> "-DARGS=<shared args>" "-DARGS_A=<args>"
#         "-DARGS_B=<args>" -DOUT=<path prefix> -P expect_same_json.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(side A B)
  separate_arguments(extra UNIX_COMMAND "${ARGS_${side}}")
  execute_process(COMMAND "${EXE}" ${args} ${extra} --json "${OUT}.${side}.json"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR "run ${side} (${ARGS_${side}}): exit ${code}\n"
                        "stderr: ${err}")
  endif()
endforeach()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT}.A.json" "${OUT}.B.json"
                RESULT_VARIABLE differ)
if(NOT differ STREQUAL "0")
  message(FATAL_ERROR "${ARGS_A} and ${ARGS_B} wrote different documents: "
                      "${OUT}.A.json vs ${OUT}.B.json")
endif()
