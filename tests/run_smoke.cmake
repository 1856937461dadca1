# Smoke-test driver for the example binaries.
#
# CTest's PASS_REGULAR_EXPRESSION ignores the process exit code, so a
# crashing binary whose partial output happens to match would pass. A
# script driver enforces both: exit code SMOKE_EXIT (default 0) AND
# output matching SMOKE_PATTERN. A run expected to succeed must print
# the pattern on stdout; one expected to fail, on stderr, where the
# tools write their errors. With SMOKE_REPORT the run must instead
# write that file (the caller passes it as --report-out; a stale copy
# is deleted first) and the pattern must match its contents.
#
# Usage (from add_test):
#   cmake -DSMOKE_BINARY=<path> -DSMOKE_PATTERN=<regex>
#         [-DSMOKE_ARGS=<arg;list>] [-DSMOKE_EXIT=<code>]
#         [-DSMOKE_REPORT=<path>] -P run_smoke.cmake

if(NOT DEFINED SMOKE_BINARY OR NOT DEFINED SMOKE_PATTERN)
    message(FATAL_ERROR
            "run_smoke.cmake requires -DSMOKE_BINARY and -DSMOKE_PATTERN")
endif()
if(NOT DEFINED SMOKE_EXIT)
    set(SMOKE_EXIT 0)
endif()

if(DEFINED SMOKE_REPORT)
    file(REMOVE "${SMOKE_REPORT}")
endif()

execute_process(
    COMMAND "${SMOKE_BINARY}" ${SMOKE_ARGS}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
)

if(NOT rc EQUAL SMOKE_EXIT)
    message(FATAL_ERROR
            "${SMOKE_BINARY} exited with '${rc}', want ${SMOKE_EXIT}\n"
            "stdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED SMOKE_REPORT)
    if(NOT EXISTS "${SMOKE_REPORT}")
        message(FATAL_ERROR
                "${SMOKE_BINARY} wrote no report to ${SMOKE_REPORT}\n"
                "stdout:\n${out}\nstderr:\n${err}")
    endif()
    file(READ "${SMOKE_REPORT}" checked)
elseif(SMOKE_EXIT EQUAL 0)
    set(checked "${out}")
else()
    set(checked "${err}")
endif()
if(NOT checked MATCHES "${SMOKE_PATTERN}")
    message(FATAL_ERROR
            "${SMOKE_BINARY} output does not match '${SMOKE_PATTERN}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
endif()
