# Injected into the repository's own top-level project through
# CMAKE_PROJECT_INCLUDE (see run.py). Once the project has defined all of
# its targets and settings, the benchmark's CMakeLists.txt is included in
# the top-level scope, so the harness links against the library targets
# exactly as the repository builds them, in its default configuration.
include_guard(GLOBAL)
set(PERFBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL include "${PERFBENCH_SOURCE_DIR}/CMakeLists.txt")
