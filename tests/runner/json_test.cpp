#include "runner/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

namespace drn::runner::json {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(escape("hello world"), "hello world");
  EXPECT_EQ(escape(""), "");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(escape("\t\r\b\f"), "\\t\\r\\b\\f");
  EXPECT_EQ(escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonEscape, EscapesMixedText) {
  const std::string nasty =
      "quote:\" backslash:\\ newline:\n tab:\t ctrl:\x02 utf8:\xc3\xa9 end";
  EXPECT_EQ(escape(nasty),
            "quote:\\\" backslash:\\\\ newline:\\n tab:\\t ctrl:\\u0002 "
            "utf8:\xc3\xa9 end");
}

TEST(JsonNumber, ShortestRoundTrip) {
  EXPECT_EQ(number(0.0), "0");
  EXPECT_EQ(number(1.5), "1.5");
  EXPECT_EQ(number(0.1), "0.1");  // shortest form, not 0.1000000000000000055
  EXPECT_EQ(number(-3.25), "-3.25");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(number(std::nan("")), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, RoundTripsExactly) {
  for (double v : {1.0 / 3.0, 6.02214076e23, 1.0e-9, 123456789.123456789}) {
    const std::string text = number(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
}

TEST(JsonWriter, CompactObject) {
  std::ostringstream os;
  Writer w(os, 0);
  w.begin_object();
  w.key("a").value(std::uint64_t{1});
  w.key("b").value("x\"y");
  w.key("c").begin_array().value(true).null().value(2.5).end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":"x\"y","c":[true,null,2.5]})");
}

TEST(JsonWriter, IndentedObject) {
  std::ostringstream os;
  Writer w(os, 2);
  w.begin_object();
  w.key("k").begin_array().value(std::uint64_t{1}).value(std::uint64_t{2}).end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
}

TEST(JsonWriter, EmptyContainers) {
  std::ostringstream os;
  Writer w(os, 2);
  w.begin_object();
  w.key("arr").begin_array().end_array();
  w.key("obj").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(os.str(), "{\n  \"arr\": [],\n  \"obj\": {}\n}");
}

TEST(JsonWriter, NegativeAndBoolValues) {
  std::ostringstream os;
  Writer w(os, 0);
  w.begin_array();
  w.value(std::int64_t{-42});
  w.value(false);
  w.value("");
  w.end_array();
  EXPECT_EQ(os.str(), R"([-42,false,""])");
}

}  // namespace
}  // namespace drn::runner::json
