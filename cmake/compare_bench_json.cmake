# Compares a freshly written benchmark artifact against a committed baseline
# and fails on a performance regression. Run in script mode:
#
#   cmake -DJSON_FILE=<current> -DBASELINE_FILE=<committed baseline>
#         [-DMETRIC_KEY=ns_per_scan] [-DMATCH_KEYS=kernel,nodes]
#         [-DTOLERANCE_PERCENT=25]
#         -P cmake/compare_bench_json.cmake
#
# Rows are matched by the MATCH_KEYS tuple (default kernel,nodes). Only the
# intersection is compared: rows present in just one file — e.g. a kernel
# added or retired since the baseline was pinned — are reported and skipped,
# never failed. A matched row fails when its metric
# exceeds baseline * (1 + TOLERANCE_PERCENT/100). Lower-than-baseline values
# never fail; improvements are reported so baselines can be re-pinned.
#
# The committed baselines live in bench/baselines/ and were produced by the
# same smoke-mode invocations the bench_smoke_* ctests run, so current and
# baseline measure identical workloads. The generous default tolerance
# absorbs smoke-scale timing noise; the guard is for step regressions
# (an accidental O(n log n), a lost fast path), not single-digit drift.

if(NOT DEFINED JSON_FILE)
  message(FATAL_ERROR "pass -DJSON_FILE=<current benchmark artifact>")
endif()
if(NOT DEFINED BASELINE_FILE)
  message(FATAL_ERROR "pass -DBASELINE_FILE=<committed baseline artifact>")
endif()
foreach(_f IN ITEMS "${JSON_FILE}" "${BASELINE_FILE}")
  if(NOT EXISTS "${_f}")
    message(FATAL_ERROR "benchmark artifact not found: ${_f}")
  endif()
endforeach()
if(NOT DEFINED METRIC_KEY)
  set(METRIC_KEY "ns_per_scan")
endif()
if(NOT DEFINED MATCH_KEYS)
  set(MATCH_KEYS "kernel,nodes")
endif()
if(NOT DEFINED TOLERANCE_PERCENT)
  set(TOLERANCE_PERCENT 25)
endif()
string(REPLACE "," ";" _match_keys "${MATCH_KEYS}")

file(READ "${JSON_FILE}" _cur)
file(READ "${BASELINE_FILE}" _base)

# The schema tags must agree — comparing different artifact kinds is a
# harness wiring bug, not a regression.
string(JSON _cur_schema ERROR_VARIABLE _err GET "${_cur}" schema)
if(_err)
  message(FATAL_ERROR "missing 'schema' in ${JSON_FILE}: ${_err}")
endif()
string(JSON _base_schema ERROR_VARIABLE _err GET "${_base}" schema)
if(_err)
  message(FATAL_ERROR "missing 'schema' in ${BASELINE_FILE}: ${_err}")
endif()
if(NOT _cur_schema STREQUAL _base_schema)
  message(FATAL_ERROR
    "schema mismatch: current '${_cur_schema}' vs baseline '${_base_schema}'")
endif()

# Builds "key=value|key=value" match ids for every row of a document and
# stores row index by id in _row_<prefix>_<id> variables.
function(_index_rows doc prefix out_ids)
  string(JSON _n ERROR_VARIABLE _err LENGTH "${doc}" results)
  if(_err)
    message(FATAL_ERROR "missing 'results' array: ${_err}")
  endif()
  set(_ids "")
  if(_n GREATER 0)
    math(EXPR _last "${_n} - 1")
    foreach(_i RANGE ${_last})
      set(_id "")
      foreach(_key IN LISTS _match_keys)
        string(JSON _val ERROR_VARIABLE _err GET "${doc}" results ${_i} ${_key})
        if(_err)
          message(FATAL_ERROR "results[${_i}] missing match key '${_key}': ${_err}")
        endif()
        string(APPEND _id "${_key}=${_val}|")
      endforeach()
      string(MAKE_C_IDENTIFIER "${_id}" _cid)
      set(_row_${prefix}_${_cid} ${_i} PARENT_SCOPE)
      list(APPEND _ids "${_id}")
    endforeach()
  endif()
  set(${out_ids} "${_ids}" PARENT_SCOPE)
endfunction()

_index_rows("${_cur}" cur _cur_ids)
_index_rows("${_base}" base _base_ids)

set(_compared 0)
set(_failures "")
foreach(_id IN LISTS _base_ids)
  list(FIND _cur_ids "${_id}" _found)
  if(_found EQUAL -1)
    message(STATUS "baseline-only row skipped: ${_id}")
    continue()
  endif()
  string(MAKE_C_IDENTIFIER "${_id}" _cid)
  string(JSON _base_metric GET "${_base}" results ${_row_base_${_cid}} ${METRIC_KEY})
  string(JSON _cur_metric GET "${_cur}" results ${_row_cur_${_cid}} ${METRIC_KEY})
  string(REGEX MATCH "^[0-9]*\\.?[0-9]+([eE][-+]?[0-9]+)?$" _ok_base "${_base_metric}")
  string(REGEX MATCH "^[0-9]*\\.?[0-9]+([eE][-+]?[0-9]+)?$" _ok_cur "${_cur_metric}")
  if(NOT _ok_base OR NOT _ok_cur)
    message(FATAL_ERROR "non-numeric ${METRIC_KEY} for ${_id}: "
      "current '${_cur_metric}' baseline '${_base_metric}'")
  endif()
  math(EXPR _compared "${_compared} + 1")
  # CMake math() is integer-only: compare cur*100 against base*(100+tol)
  # after scaling both metrics to integer milli-units (3 decimals kept by
  # splitting on the decimal point). ns-scale values stay far from overflow.
  math(EXPR _scale "100 + ${TOLERANCE_PERCENT}")
  foreach(_pair "cur;${_cur_metric}" "base;${_base_metric}")
    list(GET _pair 0 _which)
    list(GET _pair 1 _raw)
    string(FIND "${_raw}" "e" _has_e)
    string(FIND "${_raw}" "E" _has_E)
    if(NOT _has_e EQUAL -1 OR NOT _has_E EQUAL -1)
      # Scientific notation in an artifact means sub-microsecond or huge
      # values; neither occurs in these benches. Treat as wiring bug.
      message(FATAL_ERROR "scientific-notation metric unsupported: ${_raw}")
    endif()
    string(FIND "${_raw}" "." _dot)
    if(_dot EQUAL -1)
      set(_int "${_raw}")
      set(_frac "000")
    else()
      string(SUBSTRING "${_raw}" 0 ${_dot} _int)
      math(EXPR _fs "${_dot} + 1")
      string(SUBSTRING "${_raw}" ${_fs} -1 _frac)
      string(SUBSTRING "${_frac}000" 0 3 _frac)
    endif()
    if(_int STREQUAL "")
      set(_int 0)
    endif()
    math(EXPR _milli "${_int} * 1000 + ${_frac}")
    set(_${_which}_milli ${_milli})
  endforeach()
  math(EXPR _lhs "${_cur_milli} * 100")
  math(EXPR _rhs "${_base_milli} * ${_scale}")
  if(_lhs GREATER _rhs)
    list(APPEND _failures
      "${_id} ${METRIC_KEY}=${_cur_metric} exceeds baseline ${_base_metric} by >${TOLERANCE_PERCENT}%")
  elseif(_cur_milli LESS _base_milli)
    message(STATUS "improved: ${_id} ${METRIC_KEY} ${_base_metric} -> ${_cur_metric}")
  endif()
endforeach()

if(_compared EQUAL 0)
  message(FATAL_ERROR "no rows matched between ${JSON_FILE} and ${BASELINE_FILE}")
endif()
if(_failures)
  string(REPLACE ";" "\n  " _msg "${_failures}")
  message(FATAL_ERROR "benchmark regression (>${TOLERANCE_PERCENT}% over baseline):\n  ${_msg}")
endif()
message(STATUS "${JSON_FILE}: ${_compared} rows within ${TOLERANCE_PERCENT}% of baseline")
