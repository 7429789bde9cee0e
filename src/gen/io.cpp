#include "gen/io.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "gen/tie_groups.hpp"

namespace ncpm::io {

namespace {

void expect(std::istream& in, const std::string& token, const char* context) {
  std::string got;
  if (!(in >> got) || got != token) {
    throw std::runtime_error(std::string("io: expected '") + token + "' while reading " + context);
  }
}

std::int64_t read_int(std::istream& in, const char* context) {
  std::int64_t value = 0;
  if (!(in >> value)) {
    throw std::runtime_error(std::string("io: expected an integer while reading ") + context);
  }
  return value;
}

// Format bound, far above any plausible text file: rejects absurd headers
// ("applicants 2147483647") before they drive multi-gigabyte allocations.
constexpr std::int64_t kMaxCount = 10'000'000;

std::int32_t read_count(std::istream& in, const char* context) {
  const auto value = read_int(in, context);
  if (value < 0 || value > kMaxCount) {
    throw std::runtime_error(std::string("io: count out of range while reading ") + context);
  }
  return static_cast<std::int32_t>(value);
}

// The formats describe exactly one document; leftover non-whitespace content
// means a header/body mismatch and must not be silently dropped.
void expect_eof(std::istream& in, const char* context) {
  in >> std::ws;
  if (in.peek() != std::istream::traits_type::eof()) {
    throw std::runtime_error(std::string("io: trailing content after ") + context);
  }
}

// std::nullopt for anything that is not a plain non-negative int32; the
// caller owns the error message (and its line number).
std::optional<std::int32_t> parse_post_id(const std::string& tok) {
  std::size_t consumed = 0;
  long value = 0;
  try {
    value = std::stol(tok, &consumed);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (consumed != tok.size() || value < 0 || value > INT32_MAX) return std::nullopt;
  return static_cast<std::int32_t>(value);
}

}  // namespace

std::string write_instance(const core::Instance& inst) {
  std::ostringstream out;
  out << "ncpm-instance v1\n";
  out << "applicants " << inst.num_applicants() << " posts " << inst.num_posts()
      << " last_resorts " << (inst.has_last_resorts() ? 1 : 0) << "\n";
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    out << a << ":";
    const auto posts = inst.posts_of(a);
    detail::for_each_tie_group(inst.ranks_of(a), [&](std::size_t i, std::size_t j) {
      if (j == i) {
        out << " " << posts[i];
      } else {
        out << " (";
        for (std::size_t k = i; k <= j; ++k) out << " " << posts[k];
        out << " )";
      }
    });
    out << "\n";
  }
  return out.str();
}

core::Instance read_instance(std::istream& in) {
  // Line-tracking parse so every rejection can name the offending line.
  // The header stays token-oriented (any whitespace layout, as with the
  // pre-tracking reader); the applicant body is line-oriented by format.
  std::size_t line_no = 0;
  std::string line;
  std::istringstream tokens(line);  // scanner state: tokens of the current line
  const auto at_line = [&line_no] { return " (line " + std::to_string(line_no) + ")"; };
  const auto bad = [&](const std::string& what) {
    throw std::runtime_error("io: " + what + at_line());
  };
  // Next whitespace-separated token, crossing line boundaries.
  const auto next_token = [&](std::string& tok, const char* context) {
    while (!(tokens >> tok)) {
      if (!std::getline(in, line)) {
        bad(std::string("truncated instance while reading ") + context);
      }
      ++line_no;
      tokens.clear();
      tokens.str(line);
    }
  };
  // Rest of the current line if non-blank, else the next non-blank line
  // (blank lines are insignificant between lines, exactly like the header's
  // token scan). False at end of stream.
  const auto next_body_line = [&]() {
    std::string rest;
    if (std::getline(tokens, rest) && rest.find_first_not_of(" \t\r") != std::string::npos) {
      line = std::move(rest);
      return true;
    }
    tokens.clear();
    tokens.str("");
    while (std::getline(in, line)) {
      ++line_no;
      if (line.find_first_not_of(" \t\r") != std::string::npos) return true;
    }
    return false;
  };
  const auto expect_token = [&](const std::string& token, const char* context) {
    std::string got;
    next_token(got, context);
    if (got != token) bad("expected '" + token + "' while reading " + std::string(context));
  };
  const auto read_header_count = [&](const char* context) {
    std::string tok;
    next_token(tok, context);
    std::int64_t value = 0;
    std::size_t consumed = 0;
    try {
      value = std::stoll(tok, &consumed);
    } catch (const std::exception&) {
      bad(std::string("expected an integer while reading ") + context);
    }
    if (consumed != tok.size()) bad(std::string("expected an integer while reading ") + context);
    if (value < 0 || value > kMaxCount) {
      bad(std::string("count out of range while reading ") + context);
    }
    return static_cast<std::int32_t>(value);
  };

  expect_token("ncpm-instance", "instance header");
  expect_token("v1", "instance header");
  expect_token("applicants", "instance header");
  const std::int32_t n_a = read_header_count("applicant count");
  expect_token("posts", "instance header");
  const std::int32_t n_p = read_header_count("post count");
  expect_token("last_resorts", "instance header");
  std::string flag_tok;
  next_token(flag_tok, "last_resorts flag");
  bool last_resorts = false;
  try {
    std::size_t consumed = 0;
    last_resorts = std::stoll(flag_tok, &consumed) != 0;
    if (consumed != flag_tok.size()) throw std::invalid_argument(flag_tok);
  } catch (const std::exception&) {
    bad("expected an integer while reading last_resorts flag");
  }

  std::vector<std::size_t> offsets{0};
  offsets.reserve(static_cast<std::size_t>(n_a) + 1);
  std::vector<std::int32_t> posts;
  std::vector<std::int32_t> ranks;
  for (std::int32_t a = 0; a < n_a; ++a) {
    if (!next_body_line()) bad("truncated instance");
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head != std::to_string(a) + ":") {
      bad("bad applicant line header '" + head + "'");
    }
    std::string tok;
    bool in_tie = false;
    std::size_t tie_start = 0;
    std::int32_t rank = 0;
    while (ls >> tok) {
      if (tok == "(") {
        if (in_tie) bad("nested '(' in applicant line");
        in_tie = true;
        tie_start = posts.size();
        ++rank;
      } else if (tok == ")") {
        if (!in_tie) bad("unmatched ')' in applicant line");
        if (posts.size() == tie_start) bad("empty tie group in applicant line");
        in_tie = false;
      } else {
        const auto p = parse_post_id(tok);
        if (!p.has_value()) bad("bad post id '" + tok + "'");
        if (!in_tie) ++rank;
        posts.push_back(*p);
        ranks.push_back(rank);
      }
    }
    if (in_tie) bad("unclosed '(' in applicant line");
    offsets.push_back(posts.size());
  }
  // Exactly one document per stream: any leftover non-blank content — on
  // the scanner's current line (reachable when applicants == 0) or on a
  // later line — is a header/body mismatch and must not be silently dropped.
  {
    std::string rest;
    if (std::getline(tokens, rest) && rest.find_first_not_of(" \t\r") != std::string::npos) {
      bad("trailing content after instance");
    }
  }
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      bad("trailing content after instance");
    }
  }
  return core::Instance::from_csr(n_p, std::move(offsets), std::move(posts), std::move(ranks),
                                 last_resorts);
}

core::Instance read_instance(const std::string& text) {
  std::istringstream in(text);
  return read_instance(in);
}

std::string write_stable_instance(const stable::StableInstance& inst) {
  std::ostringstream out;
  out << "ncpm-stable v1\n";
  out << "n " << inst.size() << "\n";
  for (std::int32_t m = 0; m < inst.size(); ++m) {
    out << "m" << m << ":";
    for (const auto w : inst.man_prefs(m)) out << " " << w;
    out << "\n";
  }
  for (std::int32_t w = 0; w < inst.size(); ++w) {
    out << "w" << w << ":";
    for (const auto m : inst.woman_prefs(w)) out << " " << m;
    out << "\n";
  }
  return out.str();
}

stable::StableInstance read_stable_instance(std::istream& in) {
  expect(in, "ncpm-stable", "stable header");
  expect(in, "v1", "stable header");
  expect(in, "n", "stable header");
  const auto n = read_count(in, "instance size");
  const auto read_side = [&](char prefix) {
    std::vector<std::vector<std::int32_t>> prefs(static_cast<std::size_t>(n));
    for (std::int32_t p = 0; p < n; ++p) {
      std::string label(1, prefix);
      label += std::to_string(p);
      label += ':';
      expect(in, label, "preference line");
      auto& list = prefs[static_cast<std::size_t>(p)];
      list.reserve(static_cast<std::size_t>(n));
      for (std::int32_t i = 0; i < n; ++i) {
        list.push_back(static_cast<std::int32_t>(read_int(in, "preference entry")));
      }
    }
    return prefs;
  };
  auto men = read_side('m');
  auto women = read_side('w');
  expect_eof(in, "stable instance");
  return stable::StableInstance::from_lists(std::move(men), std::move(women));
}

stable::StableInstance read_stable_instance(const std::string& text) {
  std::istringstream in(text);
  return read_stable_instance(in);
}

std::string write_matching(const matching::Matching& m) {
  std::ostringstream out;
  out << "ncpm-matching v1\n";
  for (std::int32_t l = 0; l < m.n_left(); ++l) {
    if (m.left_matched(l)) out << l << " " << m.right_of(l) << "\n";
  }
  return out.str();
}

matching::Matching read_matching(std::istream& in, std::int32_t n_left, std::int32_t n_right) {
  expect(in, "ncpm-matching", "matching header");
  expect(in, "v1", "matching header");
  matching::Matching m(n_left, n_right);
  std::int64_t l;
  while (in >> l) {
    const auto r = read_int(in, "matching pair");
    if (l < 0 || l >= n_left || r < 0 || r >= n_right) {
      throw std::runtime_error("io: matching pair out of range");
    }
    m.match(static_cast<std::int32_t>(l), static_cast<std::int32_t>(r));
  }
  if (!in.eof()) {
    throw std::runtime_error("io: bad matching pair");
  }
  return m;
}

matching::Matching read_matching(const std::string& text, std::int32_t n_left,
                                 std::int32_t n_right) {
  std::istringstream in(text);
  return read_matching(in, n_left, n_right);
}

}  // namespace ncpm::io
