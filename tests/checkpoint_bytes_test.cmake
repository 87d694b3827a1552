# One cross-process checkpoint case: save the same run at the same SM
# cycle from two processes and require identical files. Struct padding
# or any other uninitialised byte in a checkpoint makes them differ.
#
# Usage: cmake -DHELPER=<checkpoint_bytes> -DKERNEL=<name> -DPOLICY=<name>
#              -DCYCLES=<n> -DWORK_DIR=<output dir>
#              -P checkpoint_bytes_test.cmake

set(dir ${WORK_DIR}/${KERNEL}.${POLICY}.${CYCLES})
file(MAKE_DIRECTORY ${dir})
foreach(run a b)
    execute_process(COMMAND ${HELPER} ${KERNEL} ${POLICY} ${CYCLES}
                            ${dir}/${run}.eqz
                    RESULT_VARIABLE rc
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "checkpoint_bytes ${KERNEL} ${POLICY} "
                            "${CYCLES}: exit '${rc}'\n${err}")
    endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${dir}/a.eqz ${dir}/b.eqz
                RESULT_VARIABLE differ)
if(differ)
    message(FATAL_ERROR "${KERNEL} ${POLICY} at SM cycle ${CYCLES}: two "
                        "processes saved different checkpoint bytes "
                        "(${dir}/a.eqz vs b.eqz)")
endif()
