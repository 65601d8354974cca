# Runs a one-trial drn_sweep, then drn_sim with the same ARGS at the trial
# seed the sweep reports, and fails unless both exit 0 and report the same
# outcome: the two CLIs must run the same trial for the same flags.
#
#   cmake -DSWEEP=<drn_sweep> -DSIM=<drn_sim> "-DARGS=<shared args>"
#         -P expect_sim_matches_sweep.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SWEEP}" ${args} --seeds 1 --progress 0
                RESULT_VARIABLE code OUTPUT_VARIABLE sweep ERROR_VARIABLE err)
if(code STREQUAL "0")
  string(JSON seed GET "${sweep}" trials 0 seed)
  execute_process(COMMAND "${SIM}" ${args} --seed ${seed} --json 1
                  RESULT_VARIABLE code OUTPUT_VARIABLE sim ERROR_VARIABLE err)
endif()
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "exit ${code}\nstderr: ${err}")
endif()
foreach(key offered delivered type1_losses type2_losses type3_losses
            hop_attempts mean_delay_s)
  string(JSON from_sweep GET "${sweep}" trials 0 ${key})
  string(JSON from_sim GET "${sim}" ${key})
  if(NOT from_sweep STREQUAL from_sim)
    message(FATAL_ERROR "${key}: drn_sweep ${from_sweep}, "
                        "drn_sim --seed ${seed} ${from_sim}")
  endif()
endforeach()
