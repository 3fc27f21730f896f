# CTest script for the scenario-results goldens (registered as
# `ga_sim_results_<name>` in tools/CMakeLists.txt, one per committed
# examples/scenarios/*.json that has a golden/<name>.results.json).
#
# Runs the scenario five ways — the parallel sweep at 4, 1 and 2 threads
# (the set-up's thread budget too), `--serial`, and the parallel sweep with
# tracing and metrics collection enabled — and each results payload must
# byte-match the committed golden. `run` and
# `run_reference` share one event loop, so the reference executor cannot
# catch a change to event order; these files, recorded before the loop
# last changed, can.
#
# Expected -D variables: GA_SIM (binary), SCENARIO, GOLDEN (committed
# results), WORKDIR (scratch root, wiped per run).
foreach(var GA_SIM SCENARIO GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sim_results_test.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_and_compare name)
  execute_process(
    COMMAND "${GA_SIM}" "${SCENARIO}" --output "${WORKDIR}/${name}.json" ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE sim_stderr
    RESULT_VARIABLE sim_status)
  if(NOT sim_status EQUAL 0)
    message(FATAL_ERROR "ga-sim (${name}) exited with ${sim_status}:\n${sim_stderr}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${WORKDIR}/${name}.json" "${GOLDEN}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR
      "${name} results drifted from the golden:\n"
      "  got:      ${WORKDIR}/${name}.json\n  expected: ${GOLDEN}")
  endif()
endfunction()

run_and_compare(parallel --threads 4)
run_and_compare(one_thread --threads 1)
run_and_compare(two_threads --threads 2)
run_and_compare(serial --serial)
run_and_compare(traced --threads 4
  --trace "${WORKDIR}/trace.json" --metrics-out "${WORKDIR}/metrics.json")

message(STATUS "ga-sim: parallel (4, 1, 2 threads), serial and traced results match ${GOLDEN}")
