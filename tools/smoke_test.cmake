# End-to-end CLI smoke test: krsp_gen -> krsp_solve in all three modes.
set(instance "${WORK_DIR}/smoke.kri")
set(solution "${WORK_DIR}/smoke.krp")

execute_process(
  COMMAND ${KRSP_GEN} --family=er --n=14 --k=2 --seed=5 --out=${instance}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "krsp_gen failed (${rc}): ${out}${err}")
endif()

foreach(mode scaled exact phase1)
  execute_process(
    COMMAND ${KRSP_SOLVE} --instance=${instance} --mode=${mode}
            --out=${solution} --verbose
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "krsp_solve --mode=${mode} failed (${rc}): ${out}${err}")
  endif()
  if(NOT out MATCHES "status: (optimal|approx)")
    message(FATAL_ERROR "unexpected solver output for ${mode}: ${out}")
  endif()
endforeach()

# Phase 1's lexicographic weights (total delay + 1) * cost + delay overflow
# int64 on this valid instance: every mode must report phase 1's typed
# overflow error as a failed status, never a failed library check.
set(overflow "${WORK_DIR}/phase1_overflow.kri")
file(WRITE ${overflow} "c phase-1 weight overflow regression
p krsp 4 4
a 0 1 3000000000 3000000000
a 1 3 3000000000 1
a 0 2 1 3000000000
a 2 3 1 3000000000
q 0 3 2 4000000000
")
foreach(mode phase1 exact)
  execute_process(
    COMMAND ${KRSP_SOLVE} --instance=${overflow} --mode=${mode}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT out MATCHES "status: failed \\(phase 1: Lagrangian weights overflow")
    message(FATAL_ERROR "overflow instance, ${mode}: no typed error (${rc}): ${out}${err}")
  endif()
  if(out MATCHES "KRSP_CHECK")
    message(FATAL_ERROR "overflow instance, ${mode}: library check failed: ${out}")
  endif()
endforeach()

# Exact mode is pseudo-polynomial in the costs: on this valid instance the
# bicameral budget doubles toward 1e9, and the DP tables would grow into
# gigabytes. The finder must refuse at its memory limit with a typed
# error, not fail a library check or die allocating.
set(dp_limit "${WORK_DIR}/dp_limit.kri")
file(WRITE ${dp_limit} "c exact-mode DP memory limit regression
p krsp 4 4
a 0 1 1 499999991
a 1 3 1 499999993
a 0 2 499999937 1
a 2 3 499999929 2
q 0 3 1 700000001
")
execute_process(
  COMMAND ${KRSP_SOLVE} --instance=${dp_limit} --mode=exact
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT out MATCHES "status: failed \\(bicameral DP tables [^)]* exceed the 256 MiB limit\\)")
  message(FATAL_ERROR "DP-limit instance: no typed error (${rc}): ${out}${err}")
endif()
if(out MATCHES "KRSP_CHECK|bad_alloc")
  message(FATAL_ERROR "DP-limit instance: library check or allocation failure: ${out}")
endif()

# Fail closed: a bad command line exits 2 with the usage line, and an
# unreadable or malformed instance exits 1 with its positioned message.
# None of them may abort (rc 134).
set(bad_kri "${WORK_DIR}/bad.kri")
file(WRITE ${bad_kri} "x\n")
foreach(case "--bogus=1" "positional")
  execute_process(
    COMMAND ${KRSP_SOLVE} --instance=${instance} ${case}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 134 OR NOT rc EQUAL 2)
    message(FATAL_ERROR "krsp_solve ${case}: expected exit 2, got ${rc}: ${out}${err}")
  endif()
  if(NOT err MATCHES "usage: krsp_solve")
    message(FATAL_ERROR "krsp_solve ${case}: no usage line: ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${KRSP_SOLVE} --instance=${bad_kri}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 134 OR NOT rc EQUAL 1)
  message(FATAL_ERROR "malformed .kri: expected exit 1, got ${rc}: ${out}${err}")
endif()
if(NOT err MATCHES "bad\\.kri: line 1, column [0-9]+: ")
  message(FATAL_ERROR "malformed .kri: no positioned message: ${err}")
endif()
execute_process(
  COMMAND ${KRSP_SOLVE} --instance=${WORK_DIR}/no_such_instance.kri
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 134 OR NOT rc EQUAL 1)
  message(FATAL_ERROR "unreadable .kri: expected exit 1, got ${rc}: ${out}${err}")
endif()

# Back-compat: --eps must still be accepted, and the split knobs alongside.
execute_process(
  COMMAND ${KRSP_SOLVE} --instance=${instance} --eps=0.5
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "krsp_solve --eps alias failed (${rc}): ${out}${err}")
endif()
execute_process(
  COMMAND ${KRSP_SOLVE} --instance=${instance} --eps1=0.5 --eps2=0.1
          --guess=doubling --deadline=30
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "krsp_solve split-eps flags failed (${rc}): ${out}${err}")
endif()

# Batch engine round trip: same instance, several repeats, two workers.
execute_process(
  COMMAND ${KRSP_BATCH} --instances=${instance} --repeat=4 --threads=2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "krsp_batch failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "throughput: ")
  message(FATAL_ERROR "unexpected krsp_batch output: ${out}")
endif()
