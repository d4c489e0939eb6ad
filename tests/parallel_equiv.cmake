# Sequential/parallel replay-equivalence gate, run as `cmake -P` from ctest
# (see tests/CMakeLists).
#
# Runs the same NAS kernel through the engine's sequential core and through
# the conservative parallel scheduler and requires byte-identical results:
#   * the full report the driver prints (per-rank overlap tables, checksums,
#     virtual times) must match exactly;
#   * the exported trace CSV — every record of every rank — must match
#     byte-for-byte (`cmake -E compare_files`).
# Any scheduling divergence between the two modes shows up here long before
# it would corrupt a characterization result.
#
# Required -D variables: NAS_RUN (binary path), WORK_DIR.  Optional:
# KERNEL (default cg), PROCS (default 9), WORKERS (default 3), VARIANT
# (kernel variant flag value, e.g. armci-nb for the one-sided MG path),
# VCI (channel spec passed as --ovprof-vci to BOTH runs, so the gate also
# covers the channelized arbitrator), RAILS (passed as --ovprof-vci-rails),
# FAULT (fault spec passed as --ovprof-fault to BOTH runs, so the gate also
# covers the NIC reliability protocol).
foreach(var NAS_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "parallel_equiv.cmake: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED KERNEL)
  set(KERNEL cg)
endif()
if(NOT DEFINED PROCS)
  set(PROCS 9)
endif()
if(NOT DEFINED WORKERS)
  set(WORKERS 3)
endif()
set(VARIANT_ARG "")
if(DEFINED VARIANT)
  set(VARIANT_ARG "--variant=${VARIANT}")
endif()
set(VCI_ARG "")
if(DEFINED VCI)
  set(VCI_ARG "--ovprof-vci=${VCI}")
endif()
set(RAILS_ARG "")
if(DEFINED RAILS)
  set(RAILS_ARG "--ovprof-vci-rails=${RAILS}")
endif()
set(FAULT_ARG "")
if(DEFINED FAULT)
  set(FAULT_ARG "--ovprof-fault=${FAULT}")
endif()

# Each run gets its own directory but identical file names, so the report
# text (which echoes the trace path) is comparable byte-for-byte.
file(MAKE_DIRECTORY "${WORK_DIR}/seq" "${WORK_DIR}/par")

function(run_traced workers dir)
  execute_process(COMMAND "${NAS_RUN}" --kernel=${KERNEL} --class=S
                          --procs=${PROCS} ${VARIANT_ARG} ${VCI_ARG}
                          ${RAILS_ARG} ${FAULT_ARG}
                          --ovprof-workers=${workers}
                          --ovprof-trace=trace.json
                  WORKING_DIRECTORY "${WORK_DIR}/${dir}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "nas_run --ovprof-workers=${workers} failed (${rc}):\n${out}\n${err}")
  endif()
  file(WRITE "${WORK_DIR}/${dir}/out.txt" "${out}")
endfunction()

run_traced(1 seq)
run_traced(${WORKERS} par)

foreach(f out.txt trace.json.csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${WORK_DIR}/seq/${f}" "${WORK_DIR}/par/${f}"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "parallel run diverged from sequential: ${f} differs "
            "(kernel=${KERNEL} procs=${PROCS} workers=${WORKERS})")
  endif()
endforeach()

message(STATUS "parallel equivalence OK: ${KERNEL} procs=${PROCS} "
               "workers=${WORKERS} reports+traces byte-identical")
