# One cross-process checkpoint case: save the same run at the same SM
# cycle from two processes and require identical files. Struct padding
# or any other uninitialised byte in a checkpoint makes them differ.
# With -DFAST_VS_SLOW=ON the second process runs with fast_path=0, so
# SM and L2 partition sleep must leave the saved bytes unchanged.
#
# Usage: cmake -DHELPER=<checkpoint_bytes> -DKERNEL=<name> -DPOLICY=<name>
#              -DCYCLES=<n> -DWORK_DIR=<output dir> [-DFAST_VS_SLOW=ON]
#              -P checkpoint_bytes_test.cmake

set(dir ${WORK_DIR}/${KERNEL}.${POLICY}.${CYCLES})
file(MAKE_DIRECTORY ${dir})
set(fast_path_b 1)
if(FAST_VS_SLOW)
    set(fast_path_b 0)
endif()
foreach(run a b)
    set(fast_path 1)
    if(run STREQUAL b)
        set(fast_path ${fast_path_b})
    endif()
    execute_process(COMMAND ${HELPER} ${KERNEL} ${POLICY} ${CYCLES}
                            ${dir}/${run}.eqz ${fast_path}
                    RESULT_VARIABLE rc
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "checkpoint_bytes ${KERNEL} ${POLICY} "
                            "${CYCLES} fast_path=${fast_path}: exit "
                            "'${rc}'\n${err}")
    endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${dir}/a.eqz ${dir}/b.eqz
                RESULT_VARIABLE differ)
if(differ)
    message(FATAL_ERROR "${KERNEL} ${POLICY} at SM cycle ${CYCLES}: two "
                        "processes (fast_path=1 and ${fast_path_b}) saved "
                        "different checkpoint bytes (${dir}/a.eqz vs "
                        "b.eqz)")
endif()
