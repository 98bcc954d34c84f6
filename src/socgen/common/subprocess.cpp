#include "socgen/common/subprocess.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace socgen {

Subprocess Subprocess::spawn(const std::vector<std::string>& argv) {
    if (argv.empty()) {
        throw SubprocessError("empty argv");
    }

    int outPipe[2];  // child stdout+stderr -> parent reads
    int execPipe[2]; // CLOEXEC status channel: exec failure errno
    if (::pipe(outPipe) != 0) {
        throw SubprocessError(format("pipe: %s", std::strerror(errno)));
    }
    if (::pipe(execPipe) != 0) {
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        throw SubprocessError(format("pipe: %s", std::strerror(errno)));
    }
    ::fcntl(execPipe[1], F_SETFD, FD_CLOEXEC);

    const pid_t child = ::fork();
    if (child < 0) {
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        ::close(execPipe[0]);
        ::close(execPipe[1]);
        throw SubprocessError(format("fork: %s", std::strerror(errno)));
    }
    if (child == 0) {
        // Child. Only async-signal-safe calls between fork and exec.
        const int devNull = ::open("/dev/null", O_RDONLY);
        if (devNull >= 0) {
            ::dup2(devNull, STDIN_FILENO);
            ::close(devNull);
        }
        ::dup2(outPipe[1], STDOUT_FILENO);
        ::dup2(outPipe[1], STDERR_FILENO);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        ::close(execPipe[0]);
        std::vector<char*> args;
        args.reserve(argv.size() + 1);
        for (const std::string& a : argv) {
            args.push_back(const_cast<char*>(a.c_str()));
        }
        args.push_back(nullptr);
        ::execvp(args[0], args.data());
        // exec failed: ship errno through the CLOEXEC pipe and die.
        const int err = errno;
        ssize_t ignored = ::write(execPipe[1], &err, sizeof err);
        (void)ignored;
        ::_exit(127);
    }

    // Parent.
    ::close(outPipe[1]);
    ::close(execPipe[1]);

    // A successful exec closes the CLOEXEC write end: read() returns 0.
    int execErrno = 0;
    const ssize_t n = ::read(execPipe[0], &execErrno, sizeof execErrno);
    ::close(execPipe[0]);
    if (n > 0) {
        ::close(outPipe[0]);
        int status = 0;
        (void)::waitpid(child, &status, 0);
        throw SubprocessError(format("exec %s: %s", argv[0].c_str(),
                                     std::strerror(execErrno)));
    }
    return Subprocess(child, outPipe[0]);
}

Subprocess::~Subprocess() {
    if (outputFd_ >= 0) {
        ::close(outputFd_);
    }
    if (pid_ > 0 && !reaped_) {
        ::kill(pid_, SIGKILL);
        (void)::waitpid(pid_, &status_, 0);
    }
}

std::string Subprocess::readToEof() {
    std::string out;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(outputFd_, buf, sizeof buf);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n < 0) {
            throw SubprocessError(format("read pid %d: %s", static_cast<int>(pid_),
                                         std::strerror(errno)));
        }
        if (n == 0) {
            return out;  // EOF: the child closed its output
        }
        out.append(buf, static_cast<std::size_t>(n));
    }
}

int Subprocess::wait() {
    if (pid_ > 0 && !reaped_) {
        pid_t r;
        do {
            r = ::waitpid(pid_, &status_, 0);
        } while (r < 0 && errno == EINTR);
        reaped_ = true;
    }
    return status_;
}

std::optional<int> waitStatusExited(int status) {
    if (WIFEXITED(status)) {
        return WEXITSTATUS(status);
    }
    return std::nullopt;
}

} // namespace socgen
