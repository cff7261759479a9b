# Passed by run.py as -DCMAKE_PROJECT_INCLUDE=<this file> when it
# configures the root project. CMake includes it right after project(),
# before src/ is added, so it defers reading bench/e2e/CMakeLists.txt to
# the end of the root CMakeLists.txt, when every library target exists.
# Deferred calls may not add subdirectories, so the file is included into
# the root directory's scope, whose flags src/ inherits too.
include_guard(GLOBAL)

set(CARPOOL_BENCH_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(carpool_add_bench_e2e)
  # A root build that already adds the directory itself wins.
  if(NOT TARGET bench_e2e)
    include("${CARPOOL_BENCH_E2E_DIR}/CMakeLists.txt")
  endif()
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL carpool_add_bench_e2e)
