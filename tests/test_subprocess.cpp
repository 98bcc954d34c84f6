// Unit tests for the Subprocess primitive under the codegen simulation
// backend's compiler invocations (CTest label: diff-sim): fork/exec with
// merged output capture, clean spawn failures, exit-status decoding, and
// zombie-free reaping.

#include "socgen/common/error.hpp"
#include "socgen/common/subprocess.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <string>

#include <sys/wait.h>

namespace socgen {
namespace {

TEST(Subprocess, CapturesStdoutAndStderrToEof) {
    Subprocess sh = Subprocess::spawn({"/bin/sh", "-c", "echo out; echo err >&2"});
    EXPECT_EQ(sh.readToEof(), "out\nerr\n");
    const int status = sh.wait();
    EXPECT_EQ(waitStatusExited(status), std::optional<int>(0));
}

TEST(Subprocess, ChildStdinIsEmpty) {
    // A tool that reads stdin sees EOF at once instead of blocking.
    Subprocess cat = Subprocess::spawn({"/bin/cat"});
    EXPECT_EQ(cat.readToEof(), "");
    EXPECT_EQ(waitStatusExited(cat.wait()), std::optional<int>(0));
}

TEST(Subprocess, ReportsNonzeroExitCode) {
    Subprocess sh = Subprocess::spawn({"/bin/sh", "-c", "exit 7"});
    const int status = sh.wait();
    EXPECT_EQ(waitStatusExited(status), std::optional<int>(7));
}

TEST(Subprocess, ReportsDeathBySignal) {
    Subprocess sh = Subprocess::spawn({"/bin/sh", "-c", "kill -9 $$"});
    const int status = sh.wait();
    EXPECT_EQ(waitStatusExited(status), std::nullopt);
    EXPECT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

TEST(Subprocess, ReadReturnsEofAfterChildKilled) {
    // The killed child's end of the pipe is gone: what it wrote before
    // dying, then EOF — not a hang.
    Subprocess sh = Subprocess::spawn({"/bin/sh", "-c", "echo partial; kill -9 $$"});
    EXPECT_EQ(sh.readToEof(), "partial\n");
    EXPECT_EQ(waitStatusExited(sh.wait()), std::nullopt);
}

TEST(Subprocess, SpawnOfMissingBinaryThrowsInParent) {
    // The CLOEXEC errno pipe turns the child's failed exec into a clean
    // parent-side throw — no half-spawned zombie to reap.
    EXPECT_THROW((void)Subprocess::spawn({"/no/such/binary/anywhere"}),
                 SubprocessError);
    int status = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(Subprocess, DestructorKillsAndReapsRunningChild) {
    const auto start = std::chrono::steady_clock::now();
    {
        Subprocess sleeper = Subprocess::spawn({"/bin/sleep", "30"});
    }
    // The destructor SIGKILLed the child rather than waiting it out...
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
    // ...and reaped it: this process has no child left, zombie or not.
    int status = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

} // namespace
} // namespace socgen
