# CTest script for the scenario-label goldens (registered as
# `ga_sim_labels_<name>` in tools/CMakeLists.txt, one per committed
# examples/scenarios/*.json).
#
# `ga-sim --list` prints the expanded grid's labels without running it; the
# output must byte-match examples/scenarios/golden/<name>.labels.txt. Labels
# name every grid point in results, tables and logs, so a change to how
# specs, axes or labels are spelled shows up here before it reaches a
# results payload.
#
# Expected -D variables: GA_SIM (binary), SCENARIO, GOLDEN (committed label
# list), WORKDIR (scratch root, wiped per run).
foreach(var GA_SIM SCENARIO GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sim_labels_test.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${GA_SIM}" "${SCENARIO}" --list
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${WORKDIR}/labels.txt"
  ERROR_VARIABLE sim_stderr
  RESULT_VARIABLE sim_status)
if(NOT sim_status EQUAL 0)
  message(FATAL_ERROR "ga-sim --list exited with ${sim_status}:\n${sim_stderr}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${WORKDIR}/labels.txt" "${GOLDEN}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR
    "scenario labels drifted from the golden:\n"
    "  got:      ${WORKDIR}/labels.txt\n  expected: ${GOLDEN}")
endif()

message(STATUS "ga-sim --list: labels match ${GOLDEN}")
