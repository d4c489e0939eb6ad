# Channel-sweep gate, run as `cmake -P` from ctest (see tests/CMakeLists):
#   cmake -DSIM_BENCH=<path> -DWORK_DIR=<dir> -P net_sweep.cmake
#
# sim_bench --net-out runs one halo workload over 1, 2 and 4 VCI channels,
# one rail each, and records a point per channel count.  Requires:
#   * exactly the three points 1, 2 and 4;
#   * the same nonzero wire bytes at every point (channels only split the
#     traffic);
#   * two rails finishing no later than one.
foreach(var SIM_BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "net_sweep.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
file(REMOVE "${WORK_DIR}/net.json")
execute_process(COMMAND "${SIM_BENCH}" --iters=100 --out=sim.json
                        --net-out=net.json
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sim_bench failed (${rc}):\n${out}\n${err}")
endif()

file(READ "${WORK_DIR}/net.json" json)
string(JSON count LENGTH "${json}" points)
set(channels "")
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON ch GET "${json}" points ${i} channels)
  string(JSON bytes_${ch} GET "${json}" points ${i} wire_bytes)
  string(JSON finish_${ch} GET "${json}" points ${i} virtual_finish_ns)
  list(APPEND channels ${ch})
endforeach()

if(NOT channels STREQUAL "1;2;4")
  message(FATAL_ERROR "channel sweep points are '${channels}', want 1;2;4")
endif()
if(NOT bytes_1 GREATER 0 OR NOT bytes_1 EQUAL bytes_2 OR
   NOT bytes_1 EQUAL bytes_4)
  message(FATAL_ERROR "channel sweep leaked wire bytes: "
                      "${bytes_1}, ${bytes_2}, ${bytes_4}")
endif()
if(finish_2 GREATER finish_1)
  message(FATAL_ERROR "two rails finished later than one: "
                      "${finish_2} > ${finish_1} ns")
endif()
