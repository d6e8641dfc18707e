// Cooperative, signal-safe shutdown for the mapping service (DESIGN.md
// Sec. 12): SIGINT/SIGTERM set a process-wide flag; the serve loop polls it
// at every tick boundary, seals a checkpoint and exits 130 instead of dying
// mid-artifact, so `--resume` continues from that tick.
//
// The flag is a lock-free atomic written from the handler (the only
// async-signal-safe operation performed there). A second signal while the
// flag is already set restores the default disposition and re-raises, so a
// wedged shutdown can still be killed with a second Ctrl-C.
#pragma once

namespace tlbmap {

/// True once SIGINT or SIGTERM has arrived. A relaxed load, cheap enough
/// to poll every tick.
bool shutdown_requested();

/// Installs SIGINT and SIGTERM handlers that set the flag. Idempotent.
/// Only front ends opt in (the library never hijacks signal dispositions
/// behind an embedder's back).
void install_shutdown_handlers();

}  // namespace tlbmap
