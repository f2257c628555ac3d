# Tool-level training bit-identity: the model lazydp_train saves must be
# byte-identical at any thread count, with the prepare/apply pipeline
# on, at any replica count, and across two runs on one kernel backend.
#
#   cmake -DTRAIN=<lazydp_train> -DOUT=<scratch dir> \
#         -P tests/tool_bit_identity.cmake
#
# Registered as the ctest `tool_bit_identity` (label `tool`). Every run
# inherits LAZYDP_KERNELS, which selects the kernel backend.

if(NOT TRAIN OR NOT OUT)
  message(FATAL_ERROR "usage: cmake -DTRAIN=<lazydp_train> -DOUT=<dir> "
                      "-P tool_bit_identity.cmake")
endif()
file(MAKE_DIRECTORY ${OUT})

# train(<name> <flags>...): lazydp_train --save=${OUT}/<name>.bin
function(train name)
  execute_process(
    COMMAND ${TRAIN} --algo=lazydp --model=tiny --iters=5 ${ARGN}
            --save=${OUT}/${name}.bin
    RESULT_VARIABLE rc OUTPUT_VARIABLE log ERROR_VARIABLE log)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lazydp_train ${ARGN} failed (${rc}):\n${log}")
  endif()
endfunction()

# same(<a> <b>): ${OUT}/<a>.bin and ${OUT}/<b>.bin are byte-identical
function(same a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/${a}.bin
            ${OUT}/${b}.bin
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a}.bin and ${b}.bin differ")
  endif()
  message(STATUS "${a}.bin == ${b}.bin")
endfunction()

# Thread count.
train(m1 --threads=1)
train(m8 --threads=8)
same(m1 m8)

# Pipeline.
train(mp --threads=8 --pipeline=on)
same(m1 mp)

# Replicas, alone and with the pipeline.
foreach(r 2 4)
  train(mr${r} --threads=8 --replicas=${r})
  same(m1 mr${r})
endforeach()
train(mrp --threads=8 --replicas=4 --pipeline=on)
same(m1 mrp)

# Same kernel backend (LAZYDP_KERNELS, inherited), two runs.
train(k1 --threads=2)
train(k2 --threads=2)
same(k1 k2)
