#include "core/shutdown.hpp"

#include <csignal>

#include <atomic>

namespace tlbmap {

namespace {

std::atomic<bool> g_shutdown{false};

extern "C" void shutdown_signal_handler(int sig) {
  // Second signal while already shutting down: the user means it — restore
  // the default disposition and re-raise so the process dies immediately.
  if (g_shutdown.exchange(true, std::memory_order_relaxed)) {
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }
}

}  // namespace

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void install_shutdown_handlers() {
  std::signal(SIGINT, shutdown_signal_handler);
  std::signal(SIGTERM, shutdown_signal_handler);
}

}  // namespace tlbmap
