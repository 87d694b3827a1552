# Command-line contract of the example drivers: each validates its
# options against its own knob roster, so a misspelled key ends in a
# clean "[fatal]" error with exit code 1 instead of being ignored.
#
# Usage: cmake -DQUICKSTART=<path> -DDVFS_EXPLORER=<path>
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
