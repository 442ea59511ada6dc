// Shared plumbing for runtime-compiled models: write generated C++ to a
// temp file, compile it with the system compiler into a shared object,
// dlopen it and resolve the entry points. The scalar NativeModel and
// `codegen_tool --keep-temps` both go through this one path, so the
// temp-file lifecycle (including every failure path) and the compile
// command live in exactly one place.
//
// Robustness: the compiler runs under a guarded runner (its own process
// group, wall-clock timeout, SIGKILL on expiry) instead of a bare
// std::system, and the whole compile→dlopen→dlsym sequence is tried twice
// with a short backoff, so one transient failure — an OOM-killed cc1plus,
// a full /tmp racing a cleanup — does not knock the native model out. On
// a final compile failure the error message carries the first ~2 KB of
// the compiler's stderr plus the .log path. Deterministic fault sites
// "jit.compile", "jit.dlopen" and "jit.dlsym" (support/fault.hpp) let
// tests exercise each failure leg.
//
// Temp-file contract: a compile attempt creates up to three files next to
// each other (<stem>.cpp, <stem>.so, <stem>.log). On success only the .so
// survives, owned by the returned JitLibrary and removed by its destructor.
// On any failure *after* the compiler ran successfully (dlopen error,
// missing entry point) all three are removed before returning. When the
// compiler itself fails, the .log survives — the error message points at it
// — and the other two are removed. JitOptions::keep_temps disables all of
// this removal (including the destructor's) so failed or successful
// artifacts can be inspected; the error message then names the source too.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace amsvp::codegen::detail {

/// Temp-file stem for one compile attempt: "<tmpdir>/amsvp_native_<pid>_<n>".
/// Honors $TMPDIR (falling back to /tmp) and is unique per process and per
/// call, so concurrent compiles — even across threads — never collide.
[[nodiscard]] std::string unique_stem();

/// POSIX-shell single-quoting, so temp paths (which inherit $TMPDIR
/// verbatim) can be embedded in the shell compile command safely.
[[nodiscard]] std::string shell_quote(const std::string& path);

/// True when a usable `c++` compiler is on PATH (cached after first call).
[[nodiscard]] bool jit_available();

/// Knobs for one JitLibrary::compile call.
struct JitOptions {
    /// Keep every temp file (.cpp/.so/.log) on success and failure alike.
    bool keep_temps = false;
};

/// Outcome of one guarded shell command run.
struct CommandResult {
    int exit_code = -1;     ///< process exit code, or -1 when signalled/failed
    bool timed_out = false; ///< killed because the wall-clock limit expired
};

/// Run `command` through /bin/sh in its own process group; on timeout the
/// whole group receives SIGKILL (a compiler driver's children die with it).
[[nodiscard]] CommandResult run_guarded_command(const std::string& command, int timeout_ms);

/// A successfully compiled and loaded shared object. Owns the dlopen handle
/// and the .so file: destruction dlcloses and removes it (removal skipped
/// when compiled with keep_temps).
class JitLibrary {
public:
    /// Compile `source` and resolve `required_symbols` (all of them),
    /// retrying once on failure. On failure returns nullptr with `error` set
    /// to the *last* attempt's diagnostic (including captured compiler
    /// stderr for compile errors), leaving no temp files behind except the
    /// compiler log on a compilation error — or everything, with
    /// options.keep_temps.
    [[nodiscard]] static std::unique_ptr<JitLibrary> compile(
        const std::string& source, const std::vector<const char*>& required_symbols,
        std::string* error, const JitOptions& options = {});

    ~JitLibrary();
    JitLibrary(const JitLibrary&) = delete;
    JitLibrary& operator=(const JitLibrary&) = delete;

    /// Resolved addresses, in required_symbols order.
    [[nodiscard]] const std::vector<void*>& symbols() const { return symbols_; }

    /// Path of the owned shared object. With JitOptions::keep_temps the
    /// matching <stem>.cpp and <stem>.log live alongside it and all three
    /// survive destruction — this is how tools point users at the kept
    /// artifacts.
    [[nodiscard]] const std::string& so_path() const { return so_path_; }

private:
    JitLibrary() = default;

    [[nodiscard]] static std::unique_ptr<JitLibrary> compile_once(
        const std::string& source, const std::vector<const char*>& required_symbols,
        std::string* error, const JitOptions& options, bool keep_failure_log);

    void* handle_ = nullptr;
    std::string so_path_;
    bool keep_so_ = false;  ///< keep_temps: leave the .so behind at destruction
    std::vector<void*> symbols_;
};

}  // namespace amsvp::codegen::detail
