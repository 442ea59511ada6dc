#include "codegen/native_jit.hpp"

#include <dlfcn.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "support/fault.hpp"

namespace amsvp::codegen::detail {

namespace {

/// Guard constants of every compile: the wall-clock limit per compiler
/// invocation (its whole process group is killed on expiry), the total
/// tries of the compile→dlopen→dlsym sequence, and the sleep before the
/// retry. Every failure mode is retried — a deterministic one just fails
/// identically twice.
constexpr int kCompileTimeoutMs = 60000;
constexpr int kCompileAttempts = 2;
constexpr int kRetryBackoffMs = 100;

/// Owns every temp path of one compile attempt until success: any early
/// return removes whatever still stands. release() hands a path over (the
/// .so transfers into the JitLibrary; the .log survives a compiler error).
/// keep_everything() turns the destructor into a no-op (JitOptions::
/// keep_temps — failed artifacts stay inspectable).
class TempFileGuard {
public:
    ~TempFileGuard() {
        if (keep_) {
            return;
        }
        for (const std::string& path : paths_) {
            if (!path.empty()) {
                std::remove(path.c_str());
            }
        }
    }

    std::size_t add(std::string path) {
        paths_.push_back(std::move(path));
        return paths_.size() - 1;
    }

    /// Stop owning paths_[index]; returns it.
    std::string release(std::size_t index) {
        std::string path = std::move(paths_[index]);
        paths_[index].clear();
        return path;
    }

    void keep_everything() { keep_ = true; }

private:
    std::vector<std::string> paths_;
    bool keep_ = false;
};

/// First `limit` bytes of `path` (the compiler log), trimmed of a trailing
/// newline, with a truncation marker when the file goes on.
std::string read_head(const std::string& path, std::size_t limit) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {};
    }
    std::string head(limit, '\0');
    in.read(head.data(), static_cast<std::streamsize>(limit));
    head.resize(static_cast<std::size_t>(in.gcount()));
    const bool truncated = in.peek() != std::ifstream::traits_type::eof();
    while (!head.empty() && (head.back() == '\n' || head.back() == '\r')) {
        head.pop_back();
    }
    if (truncated) {
        head += "\n[... log truncated ...]";
    }
    return head;
}

}  // namespace

std::string unique_stem() {
    static std::atomic<int> counter{0};
    // Read $TMPDIR on every call (not cached): tests redirect it to verify
    // the temp-file lifecycle, and respecting the live environment is what
    // the variable means.
    const char* tmpdir = std::getenv("TMPDIR");
    std::string dir = (tmpdir != nullptr && tmpdir[0] != '\0') ? tmpdir : "/tmp";
    if (dir.back() == '/') {
        dir.pop_back();
    }
    return dir + "/amsvp_native_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1));
}

std::string shell_quote(const std::string& path) {
    std::string quoted = "'";
    for (const char c : path) {
        if (c == '\'') {
            quoted += "'\\''";
        } else {
            quoted += c;
        }
    }
    quoted += "'";
    return quoted;
}

bool jit_available() {
    static const bool available = [] {
        return run_guarded_command("c++ --version > /dev/null 2>&1", 30000).exit_code == 0;
    }();
    return available;
}

CommandResult run_guarded_command(const std::string& command, int timeout_ms) {
    CommandResult result;
    const pid_t pid = ::fork();
    if (pid < 0) {
        return result;  // fork failed: exit_code stays -1, retryable
    }
    if (pid == 0) {
        // Child: own process group, so a timeout kill reaches the compiler
        // driver *and* everything it spawned (cc1plus, as, ld).
        ::setpgid(0, 0);
        ::execl("/bin/sh", "sh", "-c", command.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
    }
    // Parent mirrors the setpgid so the group exists whichever side runs
    // first; EACCES/ESRCH just mean the child got there already (or exec'd).
    ::setpgid(pid, pid);

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
    int poll_us = 200;  // grows to 20 ms: sub-ms latency for fast commands
    for (;;) {
        int status = 0;
        const pid_t waited = ::waitpid(pid, &status, WNOHANG);
        if (waited == pid) {
            if (WIFEXITED(status)) {
                result.exit_code = WEXITSTATUS(status);
            }
            return result;  // signalled child: exit_code stays -1
        }
        if (waited < 0 && errno != EINTR) {
            return result;
        }
        if (timeout_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
            ::kill(-pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            result.timed_out = true;
            return result;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(poll_us));
        poll_us = std::min(poll_us * 2, 20000);
    }
}

std::unique_ptr<JitLibrary> JitLibrary::compile_once(
    const std::string& source, const std::vector<const char*>& required_symbols,
    std::string* error, const JitOptions& options, bool keep_failure_log) {
    const std::string stem = unique_stem();
    TempFileGuard guard;
    if (options.keep_temps) {
        guard.keep_everything();
    }
    guard.add(stem + ".cpp");
    const std::size_t so_index = guard.add(stem + ".so");
    const std::size_t log_index = guard.add(stem + ".log");
    const std::string src_path = stem + ".cpp";
    const std::string so_path = stem + ".so";
    const std::string log_path = stem + ".log";
    {
        std::ofstream out(src_path);
        if (!out) {
            if (error != nullptr) {
                *error = "cannot write " + src_path;
            }
            return nullptr;
        }
        out << source;
    }
    // -ffp-contract=off keeps the native arithmetic bit-identical to the
    // in-process interpreters (each operation rounds separately; the amsvp
    // library itself builds with the same flag).
    const std::string cmd = "c++ -std=c++17 -O2 -ffp-contract=off -shared -fPIC -o " +
                            shell_quote(so_path) + " " + shell_quote(src_path) + " 2> " +
                            shell_quote(log_path);
    CommandResult compiled;
    if (support::fault::should_fire("jit.compile")) {
        std::ofstream(log_path) << "injected fault: jit.compile\n";
        compiled.exit_code = 1;
    } else {
        compiled = run_guarded_command(cmd, kCompileTimeoutMs);
    }
    if (compiled.timed_out) {
        if (error != nullptr) {
            *error = "compilation of generated model timed out after " +
                     std::to_string(kCompileTimeoutMs) + " ms";
        }
        return nullptr;
    }
    if (compiled.exit_code != 0) {
        if (error != nullptr) {
            *error = "compilation of generated model failed (exit " +
                     std::to_string(compiled.exit_code) + ", log: " + log_path + ")";
            const std::string stderr_head = read_head(log_path, 2048);
            if (!stderr_head.empty()) {
                *error += "\ncompiler stderr:\n" + stderr_head;
            }
            if (options.keep_temps) {
                *error += "\ngenerated source kept at " + src_path;
            }
        }
        if (keep_failure_log) {
            guard.release(log_index);  // the final error message references it
        }
        return nullptr;
    }

    void* handle = nullptr;
    if (support::fault::should_fire("jit.dlopen")) {
        if (error != nullptr) {
            *error = "dlopen failed: injected fault: jit.dlopen";
        }
        return nullptr;
    }
    handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        if (error != nullptr) {
            *error = std::string("dlopen failed: ") + ::dlerror();
        }
        return nullptr;
    }

    std::vector<void*> symbols;
    symbols.reserve(required_symbols.size());
    for (const char* name : required_symbols) {
        void* address =
            support::fault::should_fire("jit.dlsym") ? nullptr : ::dlsym(handle, name);
        if (address == nullptr) {
            if (error != nullptr) {
                *error = std::string("generated shared object lacks entry point ") + name;
            }
            ::dlclose(handle);
            return nullptr;
        }
        symbols.push_back(address);
    }

    auto library = std::unique_ptr<JitLibrary>(new JitLibrary());
    library->handle_ = handle;
    library->so_path_ = guard.release(so_index);  // owned until ~JitLibrary now
    library->keep_so_ = options.keep_temps;
    library->symbols_ = std::move(symbols);
    return library;
}

std::unique_ptr<JitLibrary> JitLibrary::compile(
    const std::string& source, const std::vector<const char*>& required_symbols,
    std::string* error, const JitOptions& options) {
    if (!jit_available()) {
        if (error != nullptr) {
            *error = "no C++ compiler available on PATH";
        }
        return nullptr;
    }
    std::string last_error;
    for (int attempt = 0; attempt < kCompileAttempts; ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(kRetryBackoffMs));
        }
        if (auto library =
                compile_once(source, required_symbols, &last_error, options,
                             /*keep_failure_log=*/attempt == kCompileAttempts - 1)) {
            return library;
        }
    }
    if (error != nullptr) {
        *error = last_error + " (after " + std::to_string(kCompileAttempts) + " attempts)";
    }
    return nullptr;
}

JitLibrary::~JitLibrary() {
    if (handle_ != nullptr) {
        ::dlclose(handle_);
    }
    if (!so_path_.empty() && !keep_so_) {
        std::remove(so_path_.c_str());
    }
}

}  // namespace amsvp::codegen::detail
