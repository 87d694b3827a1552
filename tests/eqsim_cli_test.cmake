# Command-line contract of eqsim: retired option spellings, malformed
# policy/mix/scheduler values and negative cycle counts must each end in
# a clean "[fatal]" error with exit code 1, before any simulation starts
# and without aborting.
#
# Usage: cmake -DEQSIM=<path to eqsim> -P eqsim_cli_test.cmake

function(expect_fatal expected)
    string(JOIN " " args ${ARGN})
    execute_process(COMMAND ${EQSIM} ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "eqsim ${args}: exit '${rc}', expected 1\n${err}")
    endif()
    if(NOT err MATCHES "\\[fatal\\] .*${expected}")
        message(FATAL_ERROR
                "eqsim ${args}: stderr lacks '${expected}':\n${err}")
    endif()
endfunction()

expect_fatal("unknown option 'json'" kernel=sgemm json=out.json)
# The hyphenated spelling canonicalizes to the retired underscore key
# before lookup, so this pins that key's removal too.
expect_fatal("unknown option 'warm-mode'" kernel=sgemm warm-mode=warm)
expect_fatal("unknown sweep strategy 'fork'"
             kernel=sgemm warm_start=1 sweep_mode=fork)
expect_fatal("policy 'blocks-x' needs a whole block count" policy=blocks-x)
expect_fatal("'sgemm:x' needs a whole-number priority"
             serve=1 serve_kernels=sgemm:x)
expect_fatal("scheduler= must be lrr or gto, got 'fifo'" scheduler=fifo)
expect_fatal("slo_us= must not be negative" serve=1 slo_us=-5)
expect_fatal("slo_us= does not apply to arrival=replay"
             serve=1 arrival=replay replay=requests.txt slo_us=100)
expect_fatal("quantum= must not be negative" serve=1 quantum=-1)
expect_fatal("preempt_cost= must not be negative" serve=1 preempt_cost=-1)
