#include "socgen/common/error.hpp"
#include "socgen/core/parser.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace socgen::core {
namespace {

TEST(Lexer, TokenKinds) {
    const auto tokens = tokenize("object x { ( ) , ; } \"str\" 'soc");
    ASSERT_EQ(tokens.size(), 11u);  // incl. EOF
    EXPECT_EQ(tokens[0].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[0].text, "object");
    EXPECT_EQ(tokens[2].kind, TokenKind::LBrace);
    EXPECT_EQ(tokens[3].kind, TokenKind::LParen);
    EXPECT_EQ(tokens[4].kind, TokenKind::RParen);
    EXPECT_EQ(tokens[5].kind, TokenKind::Comma);
    EXPECT_EQ(tokens[6].kind, TokenKind::Semicolon);
    EXPECT_EQ(tokens[7].kind, TokenKind::RBrace);
    EXPECT_EQ(tokens[8].kind, TokenKind::String);
    EXPECT_EQ(tokens[8].text, "str");
    EXPECT_EQ(tokens[9].kind, TokenKind::SocQuote);
    EXPECT_EQ(tokens[10].kind, TokenKind::EndOfFile);
}

TEST(Lexer, TracksLineAndColumn) {
    const auto tokens = tokenize("a\n  b");
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[0].column, 1);
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_EQ(tokens[1].column, 3);
}

TEST(Lexer, SkipsComments) {
    const auto tokens = tokenize("// line comment\nfoo /* block\ncomment */ bar");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].text, "foo");
    EXPECT_EQ(tokens[1].text, "bar");
}

TEST(Lexer, RejectsBadInput) {
    EXPECT_THROW((void)tokenize("$"), DslError);
    EXPECT_THROW((void)tokenize("\"unterminated"), DslError);
    EXPECT_THROW((void)tokenize("\"multi\nline\""), DslError);
    EXPECT_THROW((void)tokenize("'nosoc"), DslError);
    EXPECT_THROW((void)tokenize("/* unterminated"), DslError);
}

TEST(Lexer, ErrorsCarryPosition) {
    try {
        (void)tokenize("ok\n   $");
        FAIL();
    } catch (const DslError& e) {
        EXPECT_NE(std::string(e.what()).find("2:4"), std::string::npos);
    }
}

constexpr const char* kQuickstart = R"(
object quickstart extends App {
  tg nodes;
    tg node "MUL" i "A" i "B" i "return" end;
    tg node "ADD" i "A" i "B" i "return" end;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
    tg connect "MUL";
    tg connect "ADD";
  tg end_edges;
}
)";

TEST(Parser, ParsesTheRunningExample) {
    const ParsedDsl parsed = parseDsl(kQuickstart);
    EXPECT_EQ(parsed.projectName, "quickstart");
    EXPECT_EQ(parsed.graph.nodes().size(), 4u);
    EXPECT_EQ(parsed.graph.links().size(), 3u);
    EXPECT_EQ(parsed.graph.connects().size(), 2u);
    const TgNode& mul = parsed.graph.node("MUL");
    ASSERT_EQ(mul.ports.size(), 3u);
    EXPECT_EQ(mul.ports[0].protocol, hls::InterfaceProtocol::AxiLite);
    const TgNode& gauss = parsed.graph.node("GAUSS");
    EXPECT_EQ(gauss.ports[0].protocol, hls::InterfaceProtocol::AxiStream);
    EXPECT_TRUE(parsed.graph.links()[0].from.soc);
    EXPECT_EQ(parsed.graph.links()[1].from.node, "GAUSS");
    EXPECT_EQ(parsed.graph.links()[1].to.port, "in");
}

TEST(Parser, ParsesTheArch4ListingOfThePaper) {
    // Listing 4 verbatim (modulo whitespace).
    constexpr const char* kArch4 = R"(
object otsu extends App {
  tg nodes;
    tg node "grayScale" is "imageIn" is "imageOutCH" is "imageOutSEG" end;
    tg node "computeHistogram" is "grayScaleImage" is "histogram" end;
    tg node "halfProbability" is "histogram" is "probability" end;
    tg node "segment" is "grayScaleImage" is "otsuThreshold" is "segmentedGrayImage" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("grayScale","imageIn") end;
    tg link ("grayScale","imageOutCH") to ("computeHistogram","grayScaleImage") end;
    tg link ("grayScale","imageOutSEG") to ("segment","grayScaleImage") end;
    tg link ("computeHistogram","histogram") to ("halfProbability","histogram") end;
    tg link ("halfProbability","probability") to ("segment","otsuThreshold") end;
    tg link ("segment","segmentedGrayImage") to 'soc end;
  tg end_edges;
}
)";
    const ParsedDsl parsed = parseDsl(kArch4);
    EXPECT_EQ(parsed.projectName, "otsu");
    EXPECT_EQ(parsed.graph.nodes().size(), 4u);
    EXPECT_EQ(parsed.graph.links().size(), 6u);
    EXPECT_TRUE(parsed.graph.connects().empty());
}

TEST(Parser, AcceptsOptionalEndAfterConnect) {
    constexpr const char* dsl = R"(
object p extends App {
  tg nodes; tg node "X" i "a" end; tg end_nodes;
  tg edges; tg connect "X" end; tg end_edges;
}
)";
    EXPECT_EQ(parseDsl(dsl).graph.connects().size(), 1u);
}

struct BadCase {
    const char* name;
    const char* source;
};

// gtest lists a parameter next to its case; without this it prints the
// two pointers, whose values change from run to run.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class ParserErrors : public testing::TestWithParam<BadCase> {};

TEST_P(ParserErrors, Rejected) {
    EXPECT_THROW((void)parseDsl(GetParam().source), DslError) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    testing::Values(
        BadCase{"empty", ""},
        BadCase{"no_object", "tg nodes;"},
        BadCase{"missing_extends", "object p App { }"},
        BadCase{"empty_nodes",
                "object p extends App { tg nodes; tg end_nodes; tg edges; tg "
                "end_edges; }"},
        BadCase{"node_without_interface",
                "object p extends App { tg nodes; tg node \"X\" end; tg end_nodes; tg "
                "edges; tg end_edges; }"},
        BadCase{"missing_end",
                "object p extends App { tg nodes; tg node \"X\" i \"a\"; tg end_nodes; "
                "tg edges; tg end_edges; }"},
        BadCase{"link_without_to",
                "object p extends App { tg nodes; tg node \"X\" is \"a\" end; tg "
                "end_nodes; tg edges; tg link ('soc) end; tg end_edges; }"},
        BadCase{"unbalanced_brace",
                "object p extends App { tg nodes; tg node \"X\" i \"a\" end; tg "
                "end_nodes; tg edges; tg end_edges;"},
        BadCase{"trailing_garbage",
                "object p extends App { tg nodes; tg node \"X\" i \"a\" end; tg "
                "end_nodes; tg edges; tg end_edges; } extra"},
        BadCase{"semantic_duplicate_node",
                "object p extends App { tg nodes; tg node \"X\" i \"a\" end; tg node "
                "\"X\" i \"a\" end; tg end_nodes; tg edges; tg end_edges; }"},
        BadCase{"semantic_dangling_stream",
                "object p extends App { tg nodes; tg node \"X\" is \"a\" end; tg "
                "end_nodes; tg edges; tg end_edges; }"}),
    [](const testing::TestParamInfo<BadCase>& info) { return info.param.name; });

TEST(Parser, TruncatedLinkReportsPositionAndFoundToken) {
    const char* dsl =
        "object p extends App {\n"
        "  tg nodes; tg node \"X\" is \"a\" end; tg end_nodes;\n"
        "  tg edges;\n"
        "    tg link (\"X\",\"a\") to";
    try {
        (void)parseDsl(dsl);
        FAIL() << "expected a parse error";
    } catch (const DslError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("4:"), std::string::npos);  // the truncated line
        EXPECT_NE(what.find("expected"), std::string::npos);
        EXPECT_NE(what.find("end of input"), std::string::npos);
    }
}

TEST(Parser, TruncatedSocLinkRejected) {
    EXPECT_THROW((void)parseDsl("object p extends App {\n"
                                "  tg nodes; tg node \"X\" is \"a\" end; tg end_nodes;\n"
                                "  tg edges; tg link 'soc to"),
                 DslError);
}

TEST(Parser, UnknownPortKindNamesTokenAndPosition) {
    const char* dsl =
        "object p extends App {\n"
        "  tg nodes;\n"
        "    tg node \"X\" os \"a\" end;\n"
        "  tg end_nodes;\n"
        "  tg edges; tg end_edges;\n"
        "}";
    try {
        (void)parseDsl(dsl);
        FAIL() << "expected a parse error";
    } catch (const DslError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("3:17"), std::string::npos);
        EXPECT_NE(what.find("unknown port kind 'os'"), std::string::npos);
        EXPECT_NE(what.find("expected 'i', 'is', or 'end'"), std::string::npos);
    }
}

TEST(Parser, ErrorMessageHasPositionAndExpectation) {
    try {
        (void)parseDsl("object p extends App { tg bogus; }");
        FAIL();
    } catch (const DslError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1:"), std::string::npos);
        EXPECT_NE(what.find("keyword"), std::string::npos);
    }
}

} // namespace
} // namespace socgen::core
