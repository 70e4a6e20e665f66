#include "sql/parser.h"

#include <algorithm>
#include <charconv>

#include "sql/lexer.h"

namespace dynview {

Result<Statement> Parser::Parse(const std::string& input) {
  DV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer::Tokenize(input));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelect(
    const std::string& input) {
  DV_ASSIGN_OR_RETURN(Statement stmt, Parse(input));
  if (!stmt.select) return Status::ParseError("expected a SELECT statement");
  return std::move(stmt.select);
}

Result<std::unique_ptr<CreateViewStmt>> Parser::ParseCreateView(
    const std::string& input) {
  DV_ASSIGN_OR_RETURN(Statement stmt, Parse(input));
  if (!stmt.create_view) {
    return Status::ParseError("expected a CREATE VIEW statement");
  }
  return std::move(stmt.create_view);
}

Result<std::unique_ptr<CreateIndexStmt>> Parser::ParseCreateIndex(
    const std::string& input) {
  DV_ASSIGN_OR_RETURN(Statement stmt, Parse(input));
  if (!stmt.create_index) {
    return Status::ParseError("expected a CREATE INDEX statement");
  }
  return std::move(stmt.create_index);
}

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) return tokens_.back();  // kEnd sentinel.
  return tokens_[i];
}

const Token& Parser::Advance() {
  const Token& t = Peek();
  if (pos_ < tokens_.size() - 1) ++pos_;
  return t;
}

bool Parser::Match(TokenKind kind) {
  if (Peek().is(kind)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenKind kind, const char* context) {
  if (Match(kind)) return Status::OK();
  return ErrorHere(std::string("expected ") + TokenKindName(kind) + " in " +
                   context);
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& t = Peek();
  return Status::ParseError(message + " (got " + TokenKindName(t.kind) +
                            (t.text.empty() ? "" : " '" + t.text + "'") +
                            " at offset " + std::to_string(t.position) + ")");
}

Status Parser::TooDeep() const {
  return ErrorHere("expression nesting exceeds " +
                   std::to_string(kMaxExprHeight) + " levels");
}

Parser::Nesting::Nesting(Parser* parser) : parser_(parser) {
  if (++parser_->depth_ > kMaxExprHeight) status_ = parser_->TooDeep();
}

namespace {

/// Parses a whole numeric token; false when it is out of range for T.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size();
}

}  // namespace

Status Parser::SetHeight(int height) {
  height_ = height;
  return height > kMaxExprHeight ? TooDeep() : Status::OK();
}

bool Parser::AtIdentifier() const {
  switch (Peek().kind) {
    case TokenKind::kIdentifier:
    // Keywords that commonly double as attribute/relation names in the
    // paper's schemas (e.g. the `date` column of stock, `count` etc. are not
    // needed, but DATE definitely is).
    case TokenKind::kDate:
    case TokenKind::kView:
    case TokenKind::kIndex:
    case TokenKind::kBtree:
    case TokenKind::kInverted:
      return true;
    default:
      return false;
  }
}

Result<std::string> Parser::ConsumeIdentifier(const char* context) {
  if (!AtIdentifier()) {
    Status err = ErrorHere(std::string("expected identifier in ") + context);
    return err;
  }
  return Advance().text;
}

Result<Statement> Parser::ParseStatement() {
  Statement stmt;
  if (Peek().is(TokenKind::kCreate)) {
    if (Peek(1).is(TokenKind::kView)) {
      DV_ASSIGN_OR_RETURN(stmt.create_view, ParseCreateViewStmt());
    } else if (Peek(1).is(TokenKind::kIndex)) {
      DV_ASSIGN_OR_RETURN(stmt.create_index, ParseCreateIndexStmt());
    } else {
      return ErrorHere("expected VIEW or INDEX after CREATE");
    }
  } else if (Peek().is(TokenKind::kSelect)) {
    DV_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
  } else {
    return ErrorHere("expected SELECT or CREATE");
  }
  Match(TokenKind::kSemicolon);
  if (!Peek().is(TokenKind::kEnd)) {
    return ErrorHere("trailing input after statement");
  }
  return stmt;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelectStmt() {
  if (++union_branches_ > kMaxUnionBranches) {
    return ErrorHere("UNION chain exceeds " +
                     std::to_string(kMaxUnionBranches) + " branches");
  }
  DV_RETURN_IF_ERROR(Expect(TokenKind::kSelect, "query"));
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = Match(TokenKind::kDistinct);

  // Select list.
  do {
    DV_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
    stmt->select_list.push_back(std::move(item));
  } while (Match(TokenKind::kComma));

  DV_RETURN_IF_ERROR(Expect(TokenKind::kFrom, "query"));
  do {
    DV_ASSIGN_OR_RETURN(FromItem item, ParseFromItem());
    stmt->from_items.push_back(std::move(item));
  } while (Match(TokenKind::kComma));

  if (Match(TokenKind::kWhere)) {
    DV_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (Match(TokenKind::kGroup)) {
    DV_RETURN_IF_ERROR(Expect(TokenKind::kBy, "GROUP BY"));
    do {
      DV_ASSIGN_OR_RETURN(auto g, ParseComparisonFreeGroupExpr());
      stmt->group_by.push_back(std::move(g));
    } while (Match(TokenKind::kComma));
  }
  if (Match(TokenKind::kHaving)) {
    DV_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }
  if (Match(TokenKind::kOrder)) {
    DV_RETURN_IF_ERROR(Expect(TokenKind::kBy, "ORDER BY"));
    do {
      OrderItem item;
      DV_ASSIGN_OR_RETURN(item.expr, ParseAdditive());
      if (Match(TokenKind::kDesc)) {
        item.descending = true;
      } else {
        Match(TokenKind::kAsc);
      }
      stmt->order_by.push_back(std::move(item));
    } while (Match(TokenKind::kComma));
  }
  if (Match(TokenKind::kLimit)) {
    if (!Peek().is(TokenKind::kIntLiteral) ||
        !ParseNumber(Peek().text, &stmt->limit)) {
      return ErrorHere("expected integer after LIMIT");
    }
    Advance();
  }
  if (Peek().is(TokenKind::kUnion)) {
    Advance();
    stmt->union_all = Match(TokenKind::kAll);
    DV_ASSIGN_OR_RETURN(stmt->union_next, ParseSelectStmt());
  }
  return stmt;
}

// GROUP BY expressions are plain value expressions (no comparisons); parse at
// the additive level.
Result<std::unique_ptr<Expr>> Parser::ParseComparisonFreeGroupExpr() {
  return ParseAdditive();
}

Result<std::unique_ptr<CreateViewStmt>> Parser::ParseCreateViewStmt() {
  DV_RETURN_IF_ERROR(Expect(TokenKind::kCreate, "view definition"));
  DV_RETURN_IF_ERROR(Expect(TokenKind::kView, "view definition"));
  auto stmt = std::make_unique<CreateViewStmt>();
  DV_ASSIGN_OR_RETURN(std::string first, ConsumeIdentifier("view name"));
  if (Match(TokenKind::kDoubleColon)) {
    stmt->db = NameTerm(first);
    DV_ASSIGN_OR_RETURN(std::string rel, ConsumeIdentifier("view name"));
    stmt->name = NameTerm(rel);
  } else {
    stmt->name = NameTerm(first);
  }
  DV_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "view header"));
  do {
    DV_ASSIGN_OR_RETURN(std::string attr, ConsumeIdentifier("view attribute"));
    stmt->attrs.emplace_back(attr);
  } while (Match(TokenKind::kComma));
  DV_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "view header"));
  DV_RETURN_IF_ERROR(Expect(TokenKind::kAs, "view definition"));
  DV_ASSIGN_OR_RETURN(stmt->query, ParseSelectStmt());
  return stmt;
}

Result<std::unique_ptr<CreateIndexStmt>> Parser::ParseCreateIndexStmt() {
  DV_RETURN_IF_ERROR(Expect(TokenKind::kCreate, "index definition"));
  DV_RETURN_IF_ERROR(Expect(TokenKind::kIndex, "index definition"));
  auto stmt = std::make_unique<CreateIndexStmt>();
  DV_ASSIGN_OR_RETURN(stmt->name, ConsumeIdentifier("index name"));
  DV_RETURN_IF_ERROR(Expect(TokenKind::kAs, "index definition"));
  if (Match(TokenKind::kBtree)) {
    stmt->method = IndexMethod::kBtree;
  } else if (Match(TokenKind::kInverted)) {
    stmt->method = IndexMethod::kInverted;
  } else {
    return ErrorHere("expected BTREE or INVERTED");
  }
  DV_RETURN_IF_ERROR(Expect(TokenKind::kBy, "index definition"));
  DV_RETURN_IF_ERROR(Expect(TokenKind::kGiven, "index definition"));
  do {
    DV_ASSIGN_OR_RETURN(auto e, ParseAdditive());
    stmt->given.push_back(std::move(e));
  } while (Match(TokenKind::kComma));
  DV_ASSIGN_OR_RETURN(stmt->query, ParseSelectStmt());
  return stmt;
}

Result<FromItem> Parser::ParseFromItem() {
  FromItem item;
  // `-> D` : database variable.
  if (Match(TokenKind::kArrow)) {
    item.kind = FromItemKind::kDatabaseVar;
    DV_ASSIGN_OR_RETURN(item.var, ConsumeIdentifier("database variable"));
    return item;
  }
  DV_ASSIGN_OR_RETURN(std::string first, ConsumeIdentifier("FROM item"));
  // `db -> R` : relation variable.
  if (Match(TokenKind::kArrow)) {
    item.kind = FromItemKind::kRelationVar;
    item.db = NameTerm(first);
    DV_ASSIGN_OR_RETURN(item.var, ConsumeIdentifier("relation variable"));
    return item;
  }
  // `db::rel ...`
  if (Match(TokenKind::kDoubleColon)) {
    DV_ASSIGN_OR_RETURN(std::string second, ConsumeIdentifier("FROM item"));
    if (Match(TokenKind::kArrow)) {
      // `db::rel -> A` : attribute variable.
      item.kind = FromItemKind::kAttributeVar;
      item.db = NameTerm(first);
      item.rel = NameTerm(second);
      DV_ASSIGN_OR_RETURN(item.var, ConsumeIdentifier("attribute variable"));
      return item;
    }
    // `db::rel T` : tuple variable (var optional — defaults to the relation
    // name, standard SQL behavior).
    item.kind = FromItemKind::kTupleVar;
    item.db = NameTerm(first);
    item.rel = NameTerm(second);
    if (AtIdentifier()) {
      DV_ASSIGN_OR_RETURN(item.var, ConsumeIdentifier("tuple variable"));
    } else {
      item.var = second;
    }
    return item;
  }
  // `T.attr X` : domain variable (qualifier may be a tuple variable or, as a
  // shorthand, a relation name — resolved by the binder).
  if (Match(TokenKind::kDot)) {
    item.kind = FromItemKind::kDomainVar;
    item.tuple = first;
    DV_ASSIGN_OR_RETURN(std::string attr, ConsumeIdentifier("domain variable"));
    item.attr = NameTerm(attr);
    DV_ASSIGN_OR_RETURN(item.var, ConsumeIdentifier("domain variable"));
    return item;
  }
  // `rel T` or bare `rel` : tuple variable.
  item.kind = FromItemKind::kTupleVar;
  item.rel = NameTerm(first);
  if (AtIdentifier()) {
    DV_ASSIGN_OR_RETURN(item.var, ConsumeIdentifier("tuple variable"));
  } else {
    item.var = first;
  }
  return item;
}

Result<SelectItem> Parser::ParseSelectItem() {
  if (Peek().is(TokenKind::kStar)) {
    Advance();
    return SelectItem(Expr::MakeStar(), "");
  }
  DV_ASSIGN_OR_RETURN(auto expr, ParseAdditive());
  std::string alias;
  if (Match(TokenKind::kAs)) {
    DV_ASSIGN_OR_RETURN(alias, ConsumeIdentifier("alias"));
  } else if (AtIdentifier()) {
    alias = Advance().text;
  }
  return SelectItem(std::move(expr), std::move(alias));
}

Result<std::unique_ptr<Expr>> Parser::ParseExpr() {
  DV_ASSIGN_OR_RETURN(auto left, ParseAnd());
  while (Peek().is(TokenKind::kOr)) {
    Advance();
    const int left_height = height_;
    DV_ASSIGN_OR_RETURN(auto right, ParseAnd());
    DV_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
    left = Expr::MakeBinary(ExprKind::kLogic, BinaryOp::kOr, std::move(left),
                            std::move(right));
  }
  return left;
}

Result<std::unique_ptr<Expr>> Parser::ParseAnd() {
  DV_ASSIGN_OR_RETURN(auto left, ParseNot());
  while (Peek().is(TokenKind::kAnd)) {
    Advance();
    const int left_height = height_;
    DV_ASSIGN_OR_RETURN(auto right, ParseNot());
    DV_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
    left = Expr::MakeBinary(ExprKind::kLogic, BinaryOp::kAnd, std::move(left),
                            std::move(right));
  }
  return left;
}

Result<std::unique_ptr<Expr>> Parser::ParseNot() {
  if (Match(TokenKind::kNot)) {
    Nesting nesting(this);
    DV_RETURN_IF_ERROR(nesting.status());
    DV_ASSIGN_OR_RETURN(auto inner, ParseNot());
    DV_RETURN_IF_ERROR(SetHeight(height_ + 1));
    return Expr::MakeNot(std::move(inner));
  }
  return ParseComparison();
}

Result<std::unique_ptr<Expr>> Parser::ParseComparison() {
  DV_ASSIGN_OR_RETURN(auto left, ParseAdditive());
  const int left_height = height_;
  switch (Peek().kind) {
    case TokenKind::kEq:
    case TokenKind::kNotEq:
    case TokenKind::kLess:
    case TokenKind::kLessEq:
    case TokenKind::kGreater:
    case TokenKind::kGreaterEq: {
      TokenKind k = Advance().kind;
      BinaryOp op;
      switch (k) {
        case TokenKind::kEq: op = BinaryOp::kEq; break;
        case TokenKind::kNotEq: op = BinaryOp::kNotEq; break;
        case TokenKind::kLess: op = BinaryOp::kLess; break;
        case TokenKind::kLessEq: op = BinaryOp::kLessEq; break;
        case TokenKind::kGreater: op = BinaryOp::kGreater; break;
        default: op = BinaryOp::kGreaterEq; break;
      }
      DV_ASSIGN_OR_RETURN(auto right, ParseAdditive());
      DV_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
      return Expr::MakeCompare(op, std::move(left), std::move(right));
    }
    case TokenKind::kLike: {
      Advance();
      DV_ASSIGN_OR_RETURN(auto right, ParseAdditive());
      DV_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
      return Expr::MakeBinary(ExprKind::kLike, BinaryOp::kEq, std::move(left),
                              std::move(right));
    }
    case TokenKind::kIs: {
      Advance();
      bool negated = Match(TokenKind::kNot);
      DV_RETURN_IF_ERROR(Expect(TokenKind::kNull, "IS NULL"));
      DV_RETURN_IF_ERROR(SetHeight(left_height + 1));
      return Expr::MakeIsNull(std::move(left), negated);
    }
    case TokenKind::kBetween:
    case TokenKind::kIn:
    case TokenKind::kNot: {
      // `x [NOT] BETWEEN lo AND hi` and `x [NOT] IN (v1, ..)` desugar to
      // comparison combinations, so the whole pipeline (evaluation,
      // implication prover, Alg. 5.1) handles them with no special cases.
      bool negated = Match(TokenKind::kNot);
      if (negated && !Peek().is(TokenKind::kBetween) &&
          !Peek().is(TokenKind::kIn)) {
        return ErrorHere("expected BETWEEN or IN after NOT");
      }
      if (Match(TokenKind::kBetween)) {
        DV_ASSIGN_OR_RETURN(auto lo, ParseAdditive());
        const int lo_height = height_;
        DV_RETURN_IF_ERROR(Expect(TokenKind::kAnd, "BETWEEN"));
        DV_ASSIGN_OR_RETURN(auto hi, ParseAdditive());
        // (left >= lo AND left <= hi), under NOT when negated.
        DV_RETURN_IF_ERROR(
            SetHeight(std::max({left_height, lo_height, height_}) + 2 +
                      (negated ? 1 : 0)));
        auto ge = Expr::MakeCompare(BinaryOp::kGreaterEq, left->Clone(),
                                    std::move(lo));
        auto le = Expr::MakeCompare(BinaryOp::kLessEq, std::move(left),
                                    std::move(hi));
        auto both = Expr::MakeBinary(ExprKind::kLogic, BinaryOp::kAnd,
                                     std::move(ge), std::move(le));
        return negated ? Expr::MakeNot(std::move(both)) : std::move(both);
      }
      DV_RETURN_IF_ERROR(Expect(TokenKind::kIn, "IN list"));
      DV_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "IN list"));
      std::unique_ptr<Expr> disjunction;
      int height = 0;  // Of the left-deep OR chain built so far.
      do {
        DV_ASSIGN_OR_RETURN(auto item, ParseAdditive());
        const int eq_height = std::max(left_height, height_) + 1;
        height = disjunction ? std::max(height, eq_height) + 1 : eq_height;
        DV_RETURN_IF_ERROR(SetHeight(height));
        auto eq =
            Expr::MakeCompare(BinaryOp::kEq, left->Clone(), std::move(item));
        if (!disjunction) {
          disjunction = std::move(eq);
        } else {
          disjunction = Expr::MakeBinary(ExprKind::kLogic, BinaryOp::kOr,
                                         std::move(disjunction), std::move(eq));
        }
      } while (Match(TokenKind::kComma));
      DV_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "IN list"));
      DV_RETURN_IF_ERROR(SetHeight(height + (negated ? 1 : 0)));
      return negated ? Expr::MakeNot(std::move(disjunction))
                     : std::move(disjunction);
    }
    default:
      return left;
  }
}

Result<std::unique_ptr<Expr>> Parser::ParseAdditive() {
  DV_ASSIGN_OR_RETURN(auto left, ParseMultiplicative());
  while (Peek().is(TokenKind::kPlus) || Peek().is(TokenKind::kMinus)) {
    BinaryOp op =
        Advance().kind == TokenKind::kPlus ? BinaryOp::kAdd : BinaryOp::kSub;
    const int left_height = height_;
    DV_ASSIGN_OR_RETURN(auto right, ParseMultiplicative());
    DV_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
    left = Expr::MakeBinary(ExprKind::kArith, op, std::move(left),
                            std::move(right));
  }
  return left;
}

Result<std::unique_ptr<Expr>> Parser::ParseMultiplicative() {
  DV_ASSIGN_OR_RETURN(auto left, ParsePrimary());
  while (Peek().is(TokenKind::kStar) || Peek().is(TokenKind::kSlash)) {
    BinaryOp op =
        Advance().kind == TokenKind::kStar ? BinaryOp::kMul : BinaryOp::kDiv;
    const int left_height = height_;
    DV_ASSIGN_OR_RETURN(auto right, ParsePrimary());
    DV_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
    left = Expr::MakeBinary(ExprKind::kArith, op, std::move(left),
                            std::move(right));
  }
  return left;
}

Result<std::unique_ptr<Expr>> Parser::ParsePrimary() {
  const Token& t = Peek();
  height_ = 1;  // Leaves; nested forms below set their own height.
  switch (t.kind) {
    case TokenKind::kIntLiteral: {
      int64_t v = 0;
      if (!ParseNumber(t.text, &v)) return ErrorHere("integer out of range");
      Advance();
      return Expr::MakeLiteral(Value::Int(v));
    }
    case TokenKind::kDoubleLiteral: {
      double v = 0;
      if (!ParseNumber(t.text, &v)) return ErrorHere("number out of range");
      Advance();
      return Expr::MakeLiteral(Value::Double(v));
    }
    case TokenKind::kStringLiteral: {
      std::string text = t.text;
      Advance();
      return Expr::MakeLiteral(Value::String(std::move(text)));
    }
    case TokenKind::kDateLiteral: {
      std::string text = t.text;
      Advance();
      DV_ASSIGN_OR_RETURN(Date d, Date::Parse(text));
      return Expr::MakeLiteral(Value::MakeDate(d));
    }
    case TokenKind::kNull:
      Advance();
      return Expr::MakeLiteral(Value::Null());
    case TokenKind::kTrue:
      Advance();
      return Expr::MakeLiteral(Value::Bool(true));
    case TokenKind::kFalse:
      Advance();
      return Expr::MakeLiteral(Value::Bool(false));
    case TokenKind::kMinus: {
      Nesting nesting(this);
      DV_RETURN_IF_ERROR(nesting.status());
      Advance();
      DV_ASSIGN_OR_RETURN(auto inner, ParsePrimary());
      DV_RETURN_IF_ERROR(SetHeight(height_ + 1));  // (0 - inner).
      return Expr::MakeBinary(ExprKind::kArith, BinaryOp::kSub,
                              Expr::MakeLiteral(Value::Int(0)),
                              std::move(inner));
    }
    case TokenKind::kLParen: {
      Nesting nesting(this);
      DV_RETURN_IF_ERROR(nesting.status());
      Advance();
      DV_ASSIGN_OR_RETURN(auto inner, ParseExpr());
      DV_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "parenthesized expression"));
      return inner;
    }
    case TokenKind::kCount:
    case TokenKind::kSum:
    case TokenKind::kAvg:
    case TokenKind::kMin:
    case TokenKind::kMax: {
      TokenKind fk = Advance().kind;
      DV_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "aggregate"));
      if (fk == TokenKind::kCount && Match(TokenKind::kStar)) {
        DV_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "aggregate"));
        return Expr::MakeAgg(AggFunc::kCountStar, nullptr, false);
      }
      bool distinct = Match(TokenKind::kDistinct);
      Nesting nesting(this);
      DV_RETURN_IF_ERROR(nesting.status());
      DV_ASSIGN_OR_RETURN(auto arg, ParseAdditive());
      DV_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "aggregate"));
      DV_RETURN_IF_ERROR(SetHeight(height_ + 1));
      AggFunc f;
      switch (fk) {
        case TokenKind::kCount: f = AggFunc::kCount; break;
        case TokenKind::kSum: f = AggFunc::kSum; break;
        case TokenKind::kAvg: f = AggFunc::kAvg; break;
        case TokenKind::kMin: f = AggFunc::kMin; break;
        default: f = AggFunc::kMax; break;
      }
      return Expr::MakeAgg(f, std::move(arg), distinct);
    }
    case TokenKind::kQuestion: {
      // Positional parameter for prepared queries: a literal placeholder
      // whose value is bound by SubstituteParameters before execution.
      Advance();
      auto param = Expr::MakeLiteral(Value::Null());
      param->param_index = next_param_index_++;
      return param;
    }
    case TokenKind::kContains:
    case TokenKind::kHasword: {
      ExprKind kind = Advance().kind == TokenKind::kContains
                          ? ExprKind::kContains
                          : ExprKind::kHasWord;
      const char* what = kind == ExprKind::kContains ? "CONTAINS" : "HASWORD";
      DV_RETURN_IF_ERROR(Expect(TokenKind::kLParen, what));
      Nesting nesting(this);
      DV_RETURN_IF_ERROR(nesting.status());
      DV_ASSIGN_OR_RETURN(auto l, ParseAdditive());
      const int l_height = height_;
      DV_RETURN_IF_ERROR(Expect(TokenKind::kComma, what));
      DV_ASSIGN_OR_RETURN(auto r, ParseAdditive());
      DV_RETURN_IF_ERROR(Expect(TokenKind::kRParen, what));
      DV_RETURN_IF_ERROR(SetHeight(std::max(l_height, height_) + 1));
      return Expr::MakeBinary(kind, BinaryOp::kEq, std::move(l), std::move(r));
    }
    default:
      break;
  }
  if (AtIdentifier()) {
    std::string name = Advance().text;
    if (Match(TokenKind::kDot)) {
      DV_ASSIGN_OR_RETURN(std::string col, ConsumeIdentifier("column reference"));
      return Expr::MakeColumnRef(std::move(name), NameTerm(col));
    }
    return Expr::MakeVarRef(std::move(name));
  }
  Status err = ErrorHere("expected expression");
  return err;
}

}  // namespace dynview
