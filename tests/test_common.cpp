#include "socgen/common/error.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/stopwatch.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <tuple>

namespace socgen {
namespace {

TEST(Strings, FormatBasics) {
    EXPECT_EQ(format("x=%d y=%s", 3, "ab"), "x=3 y=ab");
    EXPECT_EQ(format("%05d", 42), "00042");
    EXPECT_EQ(format("%s", ""), "");
}

TEST(Strings, FormatLongOutput) {
    const std::string big(3000, 'q');
    EXPECT_EQ(format("%s!", big.c_str()).size(), 3001u);
}

TEST(Strings, SplitDropsEmptyPieces) {
    EXPECT_EQ(split("a,b,,c", ","), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split(",,", ","), std::vector<std::string>{});
    EXPECT_EQ(split("one two\tthree", " \t"),
              (std::vector<std::string>{"one", "two", "three"}));
}

TEST(Strings, TrimBothEnds) {
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("\t\n"), "");
    EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, StartsEndsWith) {
    EXPECT_TRUE(startsWith("socgen", "soc"));
    EXPECT_FALSE(startsWith("so", "soc"));
    EXPECT_TRUE(endsWith("design.tcl", ".tcl"));
    EXPECT_FALSE(endsWith("tcl", "design.tcl"));
}

TEST(Strings, JoinWithSeparator) {
    EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, IdentifierChecks) {
    EXPECT_TRUE(isIdentifier("abc_1"));
    EXPECT_TRUE(isIdentifier("_x"));
    EXPECT_FALSE(isIdentifier("1abc"));
    EXPECT_FALSE(isIdentifier(""));
    EXPECT_FALSE(isIdentifier("a-b"));
}

TEST(Strings, SanitizeIdentifier) {
    EXPECT_EQ(sanitizeIdentifier("my core!"), "my_core_");
    EXPECT_EQ(sanitizeIdentifier("9lives"), "x9lives");
    EXPECT_EQ(sanitizeIdentifier(""), "x");
    EXPECT_EQ(sanitizeIdentifier("ok_name"), "ok_name");
}

TEST(Strings, CountLines) {
    EXPECT_EQ(countLines(""), 0u);
    EXPECT_EQ(countLines("a"), 1u);
    EXPECT_EQ(countLines("a\n"), 1u);
    EXPECT_EQ(countLines("a\nb"), 2u);
    EXPECT_EQ(countLines("a\nb\n"), 2u);
}

TEST(Strings, CountNonSpaceChars) {
    EXPECT_EQ(countNonSpaceChars(" a b\tc\n"), 3u);
    EXPECT_EQ(countNonSpaceChars(""), 0u);
}

TEST(Strings, Fnv1aIsStableAndSpreads) {
    EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
    EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
    EXPECT_NE(fnv1a64(""), fnv1a64(std::string_view("\0", 1)));
}

TEST(Error, RequireThrowsWithMessage) {
    EXPECT_NO_THROW(require(true, "fine"));
    try {
        require(false, "broken invariant");
        FAIL() << "expected throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("broken invariant"), std::string::npos);
    }
}

TEST(Error, HierarchyPrefixes) {
    EXPECT_NE(std::string(DslError("x").what()).find("dsl:"), std::string::npos);
    EXPECT_NE(std::string(HlsError("x").what()).find("hls:"), std::string::npos);
    EXPECT_NE(std::string(SynthesisError("x").what()).find("synth:"), std::string::npos);
    EXPECT_NE(std::string(SimulationError("x").what()).find("sim:"), std::string::npos);
}

TEST(Log, CaptureCollectsAndRestores) {
    {
        LogCapture capture;
        Logger::global().info("hello capture");
        EXPECT_TRUE(capture.contains("hello capture"));
        EXPECT_FALSE(capture.contains("absent"));
        EXPECT_EQ(capture.lines().size(), 1u);
    }
    // After destruction the default sink is restored; nothing to assert
    // beyond not crashing.
    Logger::global().debug("after capture");
}

TEST(Log, LevelFiltering) {
    LogCapture capture(LogLevel::Warn);
    Logger::global().info("filtered out");
    Logger::global().warn("kept");
    EXPECT_FALSE(capture.contains("filtered out"));
    EXPECT_TRUE(capture.contains("kept"));
}

TEST(Stopwatch, MeasuresNonNegative) {
    Stopwatch watch;
    EXPECT_GE(watch.elapsedMs(), 0.0);
    watch.reset();
    EXPECT_GE(watch.elapsedMs(), 0.0);
}

TEST(TextFile, RoundTrip) {
    const std::string dir = testing::TempDir() + "/socgen_tf";
    const std::string path = dir + "/sub/file.txt";
    writeTextFile(path, "contents\nline2");
    EXPECT_EQ(readTextFile(path), "contents\nline2");
    writeBinaryFile(path, std::string("\0\x01\x02", 3));
    EXPECT_EQ(readTextFile(path).size(), 3u);
    std::filesystem::remove_all(dir);
}

TEST(TextFile, MissingFileThrows) {
    EXPECT_THROW((void)readTextFile("/nonexistent/socgen/file"), Error);
}

TEST(TextFile, UnwritablePathThrows) {
    EXPECT_THROW(writeTextFile("/proc/socgen_cannot_write/x", "data"), Error);
}

} // namespace
} // namespace socgen
