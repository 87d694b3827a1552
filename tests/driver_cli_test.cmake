# Command-line contract of the example drivers: each validates its
# options against its own knob roster, so a misspelled key ends in a
# clean "[fatal]" error with exit code 1 instead of being ignored.
#
# Usage: cmake -DEQSIM=<path> -DQUICKSTART=<path> -DDVFS_EXPLORER=<path>
#              -DEXPORT_METRICS=<path> -DAPP_PIPELINE=<path>
#              -P driver_cli_test.cmake

function(expect_fatal driver expected)
    string(JOIN " " args ${ARGN})
    execute_process(COMMAND ${driver} ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
                "${driver} ${args}: exit '${rc}', expected 1\n${err}")
    endif()
    if(NOT err MATCHES "\\[fatal\\] .*${expected}")
        message(FATAL_ERROR
                "${driver} ${args}: stderr lacks '${expected}':\n${err}")
    endif()
endfunction()

expect_fatal(${QUICKSTART} "did you mean 'kernel'" kernal=lbm)
expect_fatal(${DVFS_EXPLORER} "did you mean 'kernel'" kernal=lbm)
expect_fatal(${EXPORT_METRICS} "did you mean 'format'" fromat=json)
expect_fatal(${APP_PIPELINE} "unknown option 'kernel'; known options: app mode"
             kernel=lbm)
expect_fatal(${QUICKSTART} "malformed option 'lbm'" lbm)

# A simulation runs on one thread. The retired threads= knob is an
# unknown option, so a stale script fails loudly instead of quietly
# running with a setting that no longer exists.
expect_fatal(${EQSIM} "unknown option 'threads'" kernel=sgemm threads=2)

# A non-positive trace ring size is a clean error, not an abort.
expect_fatal(${EQSIM} "trace_buf_kb= must be positive, got -1"
             kernel=sgemm trace=unused.trace trace_buf_kb=-1)

# A rejected tracer config is fatal before the trace file is created.
set(trace_file "${CMAKE_CURRENT_BINARY_DIR}/rejected_config.trace")
file(REMOVE "${trace_file}")
expect_fatal(${EQSIM} "overflows a byte count"
             kernel=sgemm trace=${trace_file} trace_buf_kb=99999999999999999)
if(EXISTS "${trace_file}")
    message(FATAL_ERROR "eqsim left ${trace_file} behind after a fatal")
endif()

# The LSU queue's ring is allocated up front, so its depth is checked
# first (a depth of 0 used to hang the run with no LSU entry free).
expect_fatal(${EQSIM} "lsu_depth= must be in .1, 4096., got 0"
             kernel=sgemm lsu_depth=0)
