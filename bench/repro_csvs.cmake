# Reproduction gate: regenerate the 20 committed result CSVs and byte-compare
# each one with its copy at the root of the source tree.
#
#   cmake -DBENCH_DIR=<bench binaries> -DSOURCE_DIR=<source root> \
#         -DWORK_DIR=<scratch dir> -P repro_csvs.cmake
#
# Registered as the ctest `ReproducesCommittedCsvs` (label `repro`).  Each
# bench writes <name>.csv into its working directory, so they run in
# WORK_DIR, never in the source tree.  CKPTSIM_QUICK is cleared because the
# committed CSVs are full-fidelity runs.
foreach(var BENCH_DIR SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "repro_csvs.cmake: -D${var}=... is required")
  endif()
endforeach()

set(csvs
  fig4a fig4b fig4c fig4d fig4e fig4f fig4g fig4h fig5 fig6 fig7 fig8
  ablation_background ablation_failures ablation_weibull downtime_breakdown
  extension_incremental job_completion interference proactive)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
unset(ENV{CKPTSIM_QUICK})

set(mismatched "")
foreach(name IN LISTS csvs)
  execute_process(
    COMMAND "${BENCH_DIR}/bench_${name}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_${name} failed (${rc}): ${err}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK_DIR}/${name}.csv"
            "${SOURCE_DIR}/${name}.csv"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND mismatched "${name}.csv")
  endif()
endforeach()

list(LENGTH csvs total)
if(mismatched)
  message(FATAL_ERROR "differ from the committed copies: ${mismatched}")
endif()
message(STATUS "all ${total} CSVs byte-identical to the committed copies")
