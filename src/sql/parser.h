#ifndef DYNVIEW_SQL_PARSER_H_
#define DYNVIEW_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace dynview {

/// Recursive-descent parser for SQL extended with the SchemaSQL constructs
/// used in the paper:
///
///   FROM -> D                          -- database variable
///   FROM db -> R                       -- relation variable
///   FROM db::rel -> A                  -- attribute variable
///   FROM [db::]rel T                   -- tuple variable
///   FROM T.attr X                      -- explicit domain variable
///   CREATE VIEW [db::]name(l1, .., ln) AS SELECT ...
///       -- header labels may be variables of the body (dynamic output schema)
///   CREATE INDEX name AS BTREE|INVERTED BY GIVEN e1, .., ek SELECT ...
///
/// Whether an identifier in a label position is a constant or a variable is
/// NOT decided here — the binder resolves identifiers against declared
/// variables (see sql/binder.h).
class Parser {
 public:
  /// Parses a single statement of any supported kind.
  static Result<Statement> Parse(const std::string& input);

  /// Parses a SELECT statement (convenience).
  static Result<std::unique_ptr<SelectStmt>> ParseSelect(
      const std::string& input);

  /// Parses a CREATE VIEW statement (convenience).
  static Result<std::unique_ptr<CreateViewStmt>> ParseCreateView(
      const std::string& input);

  /// Parses a CREATE INDEX statement (convenience).
  static Result<std::unique_ptr<CreateIndexStmt>> ParseCreateIndex(
      const std::string& input);

  /// Bounds every later recursive pass can assume (binder, Expr::ToString,
  /// fingerprint, normalize, compile, and the unique_ptr destructor chain):
  /// the height of one expression tree — NOT and unary-minus chains,
  /// function arguments and left-deep binary-operator chains each add a
  /// level — and the number of SELECT branches one UNION chain may join.
  /// Parenthesis nesting counts against kMaxExprHeight too: each level costs
  /// the parser seven frames (~17 KB under AddressSanitizer), so 256 levels
  /// stay near half of an 8 MiB stack. Input beyond either bound is a
  /// ParseError naming the offending token.
  static constexpr int kMaxExprHeight = 256;
  static constexpr int kMaxUnionBranches = 500;

 private:
  /// One level of recursive descent into a nested expression (parentheses,
  /// NOT, unary minus, aggregate and CONTAINS/HASWORD arguments), held for
  /// the life of the nested parse; fails past kMaxExprHeight open levels.
  class Nesting {
   public:
    explicit Nesting(Parser* parser);
    ~Nesting() { --parser_->depth_; }
    const Status& status() const { return status_; }

   private:
    Parser* parser_;
    Status status_;
  };

  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();
  bool Match(TokenKind kind);
  Status Expect(TokenKind kind, const char* context);
  Status ErrorHere(const std::string& message) const;
  /// The ParseError for input past kMaxExprHeight.
  Status TooDeep() const;
  /// Records `height` as the height of the expression just parsed; fails
  /// once it exceeds kMaxExprHeight.
  Status SetHeight(int height);

  Result<Statement> ParseStatement();
  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt();
  Result<std::unique_ptr<CreateViewStmt>> ParseCreateViewStmt();
  Result<std::unique_ptr<CreateIndexStmt>> ParseCreateIndexStmt();

  Result<FromItem> ParseFromItem();
  Result<SelectItem> ParseSelectItem();

  Result<std::unique_ptr<Expr>> ParseExpr();        // OR level.
  Result<std::unique_ptr<Expr>> ParseComparisonFreeGroupExpr();
  Result<std::unique_ptr<Expr>> ParseAnd();
  Result<std::unique_ptr<Expr>> ParseNot();
  Result<std::unique_ptr<Expr>> ParseComparison();
  Result<std::unique_ptr<Expr>> ParseAdditive();
  Result<std::unique_ptr<Expr>> ParseMultiplicative();
  Result<std::unique_ptr<Expr>> ParsePrimary();

  /// True if the current token can start an identifier-like name (several
  /// keywords such as DATE double as common column names).
  bool AtIdentifier() const;
  /// Consumes an identifier-like token and returns its text.
  Result<std::string> ConsumeIdentifier(const char* context);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Next `?` parameter ordinal, assigned in left-to-right parse order.
  int next_param_index_ = 0;
  /// Height of the expression the last expression Parse* call returned.
  int height_ = 0;
  /// Open Nesting levels.
  int depth_ = 0;
  /// SELECT branches of the UNION chain parsed so far.
  int union_branches_ = 0;
};

}  // namespace dynview

#endif  // DYNVIEW_SQL_PARSER_H_
