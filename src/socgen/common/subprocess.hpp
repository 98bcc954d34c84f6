#pragma once

#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace socgen {

/// One spawned tool invocation (a compiler, a `--version` probe) whose
/// combined stdout and stderr the caller reads to EOF and then reaps.
/// fork/exec only (no shell, no `system()`): the argv is executed
/// verbatim. The child's stdin is /dev/null and its stderr is always
/// merged into its stdout, so diagnostics can be attached to a thrown
/// error instead of spilling to the terminal.
///
/// Lifecycle contract:
///  - spawn() throws SubprocessError when the executable cannot be
///    exec'd (reported through a CLOEXEC status pipe, so "no such
///    binary" is a clean throw in the parent, not a dead child);
///  - the destructor never leaks a zombie: a still-running child is
///    SIGKILLed and reaped.
class Subprocess {
public:
    /// Forks and execs `argv` (argv[0] is the executable, looked up on
    /// PATH). The child's stdout and stderr share one pipe owned by this
    /// object.
    [[nodiscard]] static Subprocess spawn(const std::vector<std::string>& argv);

    Subprocess(const Subprocess&) = delete;
    Subprocess& operator=(const Subprocess&) = delete;
    ~Subprocess();

    /// Blocks until the child closes its output (normally: it exited)
    /// and returns everything it wrote. Throws SubprocessError on an IO
    /// failure.
    [[nodiscard]] std::string readToEof();

    /// Blocks until the child exits and reaps it; returns the raw
    /// waitpid status (see waitStatusExited). Returns the cached status
    /// if already reaped.
    int wait();

private:
    Subprocess(pid_t pid, int outputFd) : pid_(pid), outputFd_(outputFd) {}

    pid_t pid_ = -1;
    int outputFd_ = -1;
    bool reaped_ = false;
    int status_ = 0;
};

/// Decodes a waitpid status: exit code if the child exited normally,
/// nullopt if a signal killed it.
[[nodiscard]] std::optional<int> waitStatusExited(int status);

} // namespace socgen
