# Golden differential driver: the looper report must not drift.
#
# Runs trace_analyzer over the checked-in golden trace and requires
# the text report and the JSON report to be BYTE-IDENTICAL to the
# goldens in tests/golden/. golden_looper (--verify) is the contract
# the model/mechanism split makes: extracting LooperModel out of the
# detector must not change a single byte of looper output, verify
# verdict lines included. golden_looper_pressure (--mem-budget=1M)
# pins the memory-pressure ladder: its rungs key off the metadata
# byte totals, so any drift in the accounting that changes a ladder
# decision changes this report.
#
# Usage (from add_test):
#   cmake -DGOLDEN_ANALYZER=<trace_analyzer> -DGOLDEN_TRACE=<in.actb>
#         -DGOLDEN_DIR=<tests/golden> -DGOLDEN_WORK=<scratch dir>
#         -DGOLDEN_NAME=<golden base name> -DGOLDEN_ARGS=<analyze flags>
#         -P run_golden.cmake

foreach(v GOLDEN_ANALYZER GOLDEN_TRACE GOLDEN_DIR GOLDEN_WORK GOLDEN_NAME
          GOLDEN_ARGS)
    if(NOT DEFINED ${v})
        message(FATAL_ERROR "run_golden.cmake requires -D${v}")
    endif()
endforeach()

file(MAKE_DIRECTORY "${GOLDEN_WORK}")
set(text_out "${GOLDEN_WORK}/${GOLDEN_NAME}.txt")
set(json_out "${GOLDEN_WORK}/${GOLDEN_NAME}.json")

execute_process(
    COMMAND "${GOLDEN_ANALYZER}" analyze "${GOLDEN_TRACE}" ${GOLDEN_ARGS}
            --report-out=${text_out}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "analyze (text) exited with '${rc}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
endif()

execute_process(
    COMMAND "${GOLDEN_ANALYZER}" analyze "${GOLDEN_TRACE}" ${GOLDEN_ARGS}
            --json --report-out=${json_out}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "analyze (json) exited with '${rc}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
endif()

foreach(kind txt json)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${GOLDEN_WORK}/${GOLDEN_NAME}.${kind}"
                "${GOLDEN_DIR}/${GOLDEN_NAME}.${kind}"
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
                "${kind} report drifted from the golden: compare "
                "${GOLDEN_WORK}/${GOLDEN_NAME}.${kind} against "
                "${GOLDEN_DIR}/${GOLDEN_NAME}.${kind}")
    endif()
endforeach()
