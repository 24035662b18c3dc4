# Regenerate the paper's figure/table artifacts and compare them byte for
# byte against the committed goldens in this directory.
#
# Invoked by ctest (tests/CMakeLists.txt) as
#   cmake -DWORK_DIR=<scratch dir> -DGOLDEN_DIR=<this dir>
#         -DBENCHES="<binary>=<json>;..." [-DARGS="<arg>;..."]
#         -P check_goldens.cmake
#
# Each binary runs in a fresh WORK_DIR (the benches write BENCH_<id>.json
# into their working directory). The optional ARGS are passed to every
# binary, with "{bench}" replaced by the binary's name; for each
# --journal=PATH among them the journal must exist and be non-empty
# after the run, so a bench that ignores its sweep flags fails here.
# An intended model change regenerates the goldens in the same change:
#   (cd tests/golden && for b in fig02_ssl_breakdown fig04_throughput \
#       fig05_bottlenecks fig10_speedup tab02_models decrypt_symmetry; \
#       do ../../build/bench/$b; done)
#   (cd tests/golden && ../../build/bench/server_scale --quick)

foreach(var WORK_DIR GOLDEN_DIR BENCHES)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_goldens.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failed "")
foreach(entry IN LISTS BENCHES)
    string(REPLACE "=" ";" pair "${entry}")
    list(GET pair 0 binary)
    list(GET pair 1 json)
    get_filename_component(bench "${binary}" NAME_WE)
    string(REPLACE "{bench}" "${bench}" args "${ARGS}")

    execute_process(COMMAND "${binary}" ${args}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${binary} exited with ${rc}")
        list(APPEND failed "${json}")
        continue()
    endif()

    foreach(arg IN LISTS args)
        if(arg MATCHES "^--journal=(.+)$")
            get_filename_component(journal "${CMAKE_MATCH_1}" ABSOLUTE
                BASE_DIR "${WORK_DIR}")
            set(size 0)
            if(EXISTS "${journal}")
                file(SIZE "${journal}" size)
            endif()
            if(size EQUAL 0)
                message(SEND_ERROR "${bench} wrote no journal at ${journal}")
                list(APPEND failed "${json}")
            endif()
        endif()
    endforeach()

    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
        "${WORK_DIR}/${json}" "${GOLDEN_DIR}/${json}"
        RESULT_VARIABLE diff)
    if(diff EQUAL 0)
        message(STATUS "${json}: identical to golden")
    else()
        message(SEND_ERROR "${json} differs from ${GOLDEN_DIR}/${json} "
                           "(regenerated copy kept in ${WORK_DIR})")
        list(APPEND failed "${json}")
    endif()
endforeach()

if(failed)
    message(FATAL_ERROR "golden check failed: ${failed}")
endif()
