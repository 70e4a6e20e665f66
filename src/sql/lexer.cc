#include "sql/lexer.h"

#include <cctype>
#include <unordered_map>

#include "common/str_util.h"

namespace dynview {

namespace {

const std::unordered_map<std::string, TokenKind>& KeywordTable() {
  static const auto* kTable = new std::unordered_map<std::string, TokenKind>{
      {"select", TokenKind::kSelect},   {"distinct", TokenKind::kDistinct},
      {"from", TokenKind::kFrom},       {"where", TokenKind::kWhere},
      {"group", TokenKind::kGroup},     {"by", TokenKind::kBy},
      {"having", TokenKind::kHaving},   {"order", TokenKind::kOrder},
      {"asc", TokenKind::kAsc},         {"desc", TokenKind::kDesc},
      {"union", TokenKind::kUnion},     {"all", TokenKind::kAll},
      {"limit", TokenKind::kLimit},
      {"and", TokenKind::kAnd},         {"or", TokenKind::kOr},
      {"not", TokenKind::kNot},         {"as", TokenKind::kAs},
      {"create", TokenKind::kCreate},   {"view", TokenKind::kView},
      {"index", TokenKind::kIndex},     {"btree", TokenKind::kBtree},
      {"inverted", TokenKind::kInverted}, {"given", TokenKind::kGiven},
      {"like", TokenKind::kLike},       {"contains", TokenKind::kContains},
      {"hasword", TokenKind::kHasword},
      {"between", TokenKind::kBetween}, {"in", TokenKind::kIn},
      {"is", TokenKind::kIs},           {"null", TokenKind::kNull},
      {"true", TokenKind::kTrue},       {"false", TokenKind::kFalse},
      {"date", TokenKind::kDate},       {"count", TokenKind::kCount},
      {"sum", TokenKind::kSum},         {"avg", TokenKind::kAvg},
      {"min", TokenKind::kMin},         {"max", TokenKind::kMax},
  };
  return *kTable;
}

}  // namespace

Result<std::vector<Token>> Lexer::Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  auto push = [&](TokenKind k, std::string text, size_t pos) {
    tokens.push_back(Token{k, std::move(text), pos});
  };
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    // Identifiers and keywords.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(input[j])) ||
                       input[j] == '_')) {
        ++j;
      }
      std::string word = input.substr(i, j - i);
      auto it = KeywordTable().find(ToLower(word));
      if (it != KeywordTable().end()) {
        // `DATE '....'` forms a date literal; plain DATE used as an
        // identifier (e.g. a column named date) is extremely common in the
        // paper, so only treat it as a literal prefix when followed by a
        // string.
        if (it->second == TokenKind::kDate) {
          size_t k = j;
          while (k < n && std::isspace(static_cast<unsigned char>(input[k]))) ++k;
          if (k < n && input[k] == '\'') {
            // Lex the string literal body.
            size_t p = k + 1;
            std::string body;
            while (p < n) {
              if (input[p] == '\'' && p + 1 < n && input[p + 1] == '\'') {
                body += '\'';
                p += 2;
              } else if (input[p] == '\'') {
                break;
              } else {
                body += input[p++];
              }
            }
            if (p >= n) {
              return Status::ParseError("unterminated date literal at offset " +
                                        std::to_string(start));
            }
            push(TokenKind::kDateLiteral, body, start);
            i = p + 1;
            continue;
          }
          push(TokenKind::kIdentifier, std::move(word), start);
          i = j;
          continue;
        }
        push(it->second, std::move(word), start);
      } else {
        push(TokenKind::kIdentifier, std::move(word), start);
      }
      i = j;
      continue;
    }
    // Numeric literals.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool has_dot = false;
      auto digit_at = [&](size_t k) {
        return k < n && std::isdigit(static_cast<unsigned char>(input[k]));
      };
      while (digit_at(j) ||
             (!has_dot && j < n && input[j] == '.' && digit_at(j + 1))) {
        if (input[j] == '.') has_dot = true;
        ++j;
      }
      // An exponent (1e+20, 2.5E-7) makes a double literal.
      bool has_exp = false;
      if (j < n && (input[j] == 'e' || input[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (input[k] == '+' || input[k] == '-')) ++k;
        if (digit_at(k)) {
          has_exp = true;
          j = k;
          while (digit_at(j)) ++j;
        }
      }
      push(has_dot || has_exp ? TokenKind::kDoubleLiteral
                              : TokenKind::kIntLiteral,
           input.substr(i, j - i), start);
      i = j;
      continue;
    }
    // String literals.
    if (c == '\'') {
      size_t p = i + 1;
      std::string body;
      while (p < n) {
        if (input[p] == '\'' && p + 1 < n && input[p + 1] == '\'') {
          body += '\'';
          p += 2;
        } else if (input[p] == '\'') {
          break;
        } else {
          body += input[p++];
        }
      }
      if (p >= n) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      push(TokenKind::kStringLiteral, std::move(body), start);
      i = p + 1;
      continue;
    }
    // Operators and punctuation.
    switch (c) {
      case ',': push(TokenKind::kComma, ",", start); ++i; continue;
      case '.': push(TokenKind::kDot, ".", start); ++i; continue;
      case '(': push(TokenKind::kLParen, "(", start); ++i; continue;
      case ')': push(TokenKind::kRParen, ")", start); ++i; continue;
      case '*': push(TokenKind::kStar, "*", start); ++i; continue;
      case '+': push(TokenKind::kPlus, "+", start); ++i; continue;
      case ';': push(TokenKind::kSemicolon, ";", start); ++i; continue;
      case '?': push(TokenKind::kQuestion, "?", start); ++i; continue;
      case '/': push(TokenKind::kSlash, "/", start); ++i; continue;
      case '-':
        if (i + 1 < n && input[i + 1] == '>') {
          push(TokenKind::kArrow, "->", start);
          i += 2;
        } else {
          push(TokenKind::kMinus, "-", start);
          ++i;
        }
        continue;
      case ':':
        if (i + 1 < n && input[i + 1] == ':') {
          push(TokenKind::kDoubleColon, "::", start);
          i += 2;
          continue;
        }
        return Status::ParseError("stray ':' at offset " + std::to_string(start));
      case '=': push(TokenKind::kEq, "=", start); ++i; continue;
      case '!':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenKind::kNotEq, "!=", start);
          i += 2;
          continue;
        }
        return Status::ParseError("stray '!' at offset " + std::to_string(start));
      case '<':
        if (i + 1 < n && input[i + 1] == '>') {
          push(TokenKind::kNotEq, "<>", start);
          i += 2;
        } else if (i + 1 < n && input[i + 1] == '=') {
          push(TokenKind::kLessEq, "<=", start);
          i += 2;
        } else {
          push(TokenKind::kLess, "<", start);
          ++i;
        }
        continue;
      case '>':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenKind::kGreaterEq, ">=", start);
          i += 2;
        } else {
          push(TokenKind::kGreater, ">", start);
          ++i;
        }
        continue;
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(start));
    }
  }
  push(TokenKind::kEnd, "", n);
  return tokens;
}

}  // namespace dynview
