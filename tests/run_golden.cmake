# Golden differential driver: the looper report must not drift.
#
# Runs trace_analyzer over the checked-in golden trace and requires
# the text report (including --verify verdict lines) and the JSON
# report to be BYTE-IDENTICAL to the pre-refactor goldens in
# tests/golden/. This is the contract the model/mechanism split makes:
# extracting LooperModel out of the detector must not change a single
# byte of looper output.
#
# Usage (from add_test):
#   cmake -DGOLDEN_ANALYZER=<trace_analyzer> -DGOLDEN_TRACE=<in.actb>
#         -DGOLDEN_DIR=<tests/golden> -DGOLDEN_WORK=<scratch dir>
#         -P run_golden.cmake

foreach(v GOLDEN_ANALYZER GOLDEN_TRACE GOLDEN_DIR GOLDEN_WORK)
    if(NOT DEFINED ${v})
        message(FATAL_ERROR "run_golden.cmake requires -D${v}")
    endif()
endforeach()

file(MAKE_DIRECTORY "${GOLDEN_WORK}")
set(text_out "${GOLDEN_WORK}/k9mail.txt")
set(json_out "${GOLDEN_WORK}/k9mail.json")

execute_process(
    COMMAND "${GOLDEN_ANALYZER}" analyze "${GOLDEN_TRACE}" --verify
            --report-out=${text_out}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "analyze (text) exited with '${rc}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
endif()

execute_process(
    COMMAND "${GOLDEN_ANALYZER}" analyze "${GOLDEN_TRACE}" --verify --json
            --report-out=${json_out}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "analyze (json) exited with '${rc}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
endif()

foreach(kind txt json)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${GOLDEN_WORK}/k9mail.${kind}"
                "${GOLDEN_DIR}/k9mail.${kind}"
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
                "${kind} report drifted from the pre-refactor golden: "
                "compare ${GOLDEN_WORK}/k9mail.${kind} against "
                "${GOLDEN_DIR}/k9mail.${kind}")
    endif()
endforeach()
