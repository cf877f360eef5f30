# Build file of the end-to-end benchmark's own binary, `perftrace` (the
# traced in-process replay and the host-drift probe).  It is injected into
# the repository's unchanged root build, so `cosmicdance` and `cosmicdanced`
# are compiled exactly as a user compiles them:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=RelWithDebInfo \
#         -DCMAKE_PROJECT_cosmicdance_INCLUDE=$PWD/perfbench/perftrace.cmake
#   cmake --build .bench_build --target cosmicdance cosmicdanced perftrace
#
# perfbench/run.py runs these two steps itself.  CMake includes this file at
# the end of the root project() call, before the libraries are defined; the
# link names below resolve when the build is generated.
add_executable(perftrace ${CMAKE_CURRENT_LIST_DIR}/perftrace.cpp)
set_target_properties(perftrace PROPERTIES
                      CXX_STANDARD 20
                      CXX_STANDARD_REQUIRED ON
                      CXX_EXTENSIONS OFF
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
target_compile_options(perftrace PRIVATE -Wall -Wextra)
target_link_libraries(perftrace PRIVATE cd_core cd_serve cd_simulation
                      cd_snapshot)
