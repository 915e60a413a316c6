#include "core/executor.hpp"

#include <cstdlib>
#include <cstring>

namespace exa {

Backend ExecConfig::s_backend = backendFromName(std::getenv("EXA_BACKEND"));
IntVect ExecConfig::s_tile_size = IntVect{1024000, 8, 8};
LaunchHook ExecConfig::s_hook;
int ExecConfig::s_num_streams = 4;

const char* backendName(Backend b) {
    switch (b) {
        case Backend::Serial: return "serial";
        case Backend::OpenMP: return "openmp";
        case Backend::SimGpu: return "simgpu";
        case Backend::Debug: return "debug";
    }
    return "unknown";
}

Backend backendFromName(const char* name) {
    if (name == nullptr) return Backend::Serial;
    if (std::strcmp(name, "openmp") == 0) return Backend::OpenMP;
    if (std::strcmp(name, "simgpu") == 0) return Backend::SimGpu;
    if (std::strcmp(name, "debug") == 0) return Backend::Debug;
    return Backend::Serial;
}

void ExecConfig::setLaunchHook(LaunchHook h) { s_hook = std::move(h); }
void ExecConfig::clearLaunchHook() { s_hook = nullptr; }

void ExecConfig::notifyLaunch(const LaunchRecord& r) {
    if (s_hook) s_hook(r);
}

} // namespace exa
