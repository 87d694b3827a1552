# One golden case: run eqsim with the case's arguments from the
# repository root and compare the FNV-1a digests of its export JSON and
# binary trace with the ones recorded in the case file.
#
# Usage: cmake -DEQSIM=<eqsim> -DDIGEST=<golden_digest>
#              -DSOURCE_DIR=<repo root> -DCASES=<golden_digests.txt>
#              -DCASE=<name> -DWORK_DIR=<output dir> -P golden_test.cmake

string(REPLACE "." "\\." pattern "${CASE}")
file(STRINGS ${CASES} lines REGEX "^${pattern} ")
list(LENGTH lines n)
if(NOT n EQUAL 1)
    message(FATAL_ERROR "${CASES}: ${n} lines for case '${CASE}'")
endif()
separate_arguments(fields UNIX_COMMAND "${lines}")
list(POP_FRONT fields name want_export want_trace)

set(dir ${WORK_DIR}/${CASE})
file(MAKE_DIRECTORY ${dir})
execute_process(COMMAND ${EQSIM} ${fields}
                        export=${dir}/out.json trace=${dir}/out.trace
                WORKING_DIRECTORY ${SOURCE_DIR}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    string(JOIN " " cmd ${fields})
    message(FATAL_ERROR "eqsim ${cmd}: exit '${rc}'\n${err}")
endif()
execute_process(COMMAND ${DIGEST} ${dir}/out.json ${dir}/out.trace
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE got)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden_digest failed on ${dir}")
endif()
string(STRIP "${got}" got)
string(REPLACE "\n" ";" got "${got}")
list(POP_FRONT got got_export got_trace)
if(NOT got_export STREQUAL want_export OR
   NOT got_trace STREQUAL want_trace)
    message(FATAL_ERROR
            "${CASE}: export ${got_export} (recorded ${want_export}), "
            "trace ${got_trace} (recorded ${want_trace}); outputs kept "
            "in ${dir}. Re-record with tests/update_golden.sh only for a "
            "change meant to move results.")
endif()
file(REMOVE_RECURSE ${dir})
