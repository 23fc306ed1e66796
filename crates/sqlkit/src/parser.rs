//! Recursive-descent SQL parser, with precedence climbing for expressions.
//!
//! Every layer after the parser — planning, optimizing, compiling,
//! rendering, evaluating, even dropping — walks an expression by recursion,
//! so the parser bounds how deep a statement may go, with a typed
//! [`SqlError::TooDeep`] past the bound: a statement either nests within
//! [`MAX_DEPTH`] or is refused before anything is built for it.

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::{tokenize, Token};
use crate::Result;
use gridfed_storage::{DataType, Value};

/// How deep an expression tree may be (each operator, call and predicate
/// one level over its operands), and how many joins a FROM list may have.
/// A statement this deep runs the whole query path — mediator, peer and
/// backend — on a 2 MiB thread, the stack scatter helpers and test threads
/// get: in under 384 KiB of it in a release build, and within it in a debug
/// build, whose frames are several times larger.
pub const MAX_DEPTH: usize = 64;

/// How many parentheses, calls and prefix operators may be open at once:
/// twice [`MAX_DEPTH`], because rendering a tree prints up to two per level
/// (`NOT (…)`, `-(…)`), and a rendered statement must parse again.
pub const MAX_NESTING: usize = 2 * MAX_DEPTH;

// Binding powers of the expression grammar, loosest first.
const OR: u8 = 1;
const AND: u8 = 3;
/// The operand of a prefix `NOT`.
const NOT: u8 = 5;
/// Comparisons, `IS`, `IN`, `BETWEEN`, `LIKE`: not associative.
const PREDICATE: u8 = 7;
const ADDITIVE: u8 = 9;
const MULTIPLICATIVE: u8 = 11;
/// The operand of a prefix sign.
const UNARY: u8 = 13;
/// A primary, or anything in parentheses.
const ATOM: u8 = u8::MAX;

/// An expression and the depth of its tree.
type Node = (Expr, usize);

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        nesting: 0,
    };
    let stmt = p.statement()?;
    p.eat_semicolons();
    if !p.at_end() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Parse a statement that must be a SELECT.
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    parse(sql)?.into_select()
}

impl Statement {
    /// The SELECT this statement is, or the error a reader that takes
    /// only SELECTs gives.
    pub fn into_select(self) -> Result<SelectStmt> {
        match self {
            Statement::Select(s) => Ok(s),
            other => Err(SqlError::Unsupported(format!(
                "expected SELECT, found {other:?}"
            ))),
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses, calls and prefix operators open at the cursor.
    nesting: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn eat_semicolons(&mut self) {
        while matches!(self.peek(), Some(Token::Semicolon)) {
            self.pos += 1;
        }
    }

    /// Consume a keyword or fail.
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{kw}`, found {}",
                self.peek().map_or("end of input".into(), Token::describe)
            )))
        }
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_tok(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, tok: Token) -> Result<()> {
        if self.eat_tok(&tok) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {}",
                tok,
                self.peek().map_or("end of input".into(), Token::describe)
            )))
        }
    }

    /// An identifier (bare or quoted).
    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) | Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other.map_or("end of input".into(), |t| t.describe())
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(t) if t.is_kw("SELECT") => Ok(Statement::Select(self.select()?)),
            Some(t) if t.is_kw("EXPLAIN") => {
                self.expect_kw("EXPLAIN")?;
                let analyze = self.eat_kw("ANALYZE");
                Ok(Statement::Explain {
                    analyze,
                    stmt: self.select()?,
                })
            }
            Some(t) if t.is_kw("CREATE") => self.create(),
            Some(t) if t.is_kw("INSERT") => self.insert(),
            Some(t) if t.is_kw("UPDATE") => self.update(),
            Some(t) if t.is_kw("DELETE") => self.delete(),
            other => Err(self.err(format!(
                "expected SELECT/EXPLAIN/CREATE/INSERT/UPDATE/DELETE, found {}",
                other.map_or("end of input".into(), Token::describe)
            ))),
        }
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_tok(Token::Eq)?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(UpdateStmt {
            table,
            assignments,
            where_clause,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(DeleteStmt {
            table,
            where_clause,
        }))
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            self.expect_tok(Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.column_spec()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
            Ok(Statement::CreateTable(CreateTableStmt { name, columns }))
        } else if self.eat_kw("VIEW") {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            let query = self.select()?;
            Ok(Statement::CreateView(CreateViewStmt { name, query }))
        } else {
            Err(self.err("expected TABLE or VIEW after CREATE"))
        }
    }

    fn column_spec(&mut self) -> Result<ColumnSpec> {
        let name = self.ident()?;
        let ty_name = self.ident()?;
        let data_type = DataType::parse(&ty_name)
            .ok_or_else(|| self.err(format!("unknown type `{ty_name}`")))?;
        // Vendors allow a length suffix like VARCHAR(255); parse and ignore.
        if self.eat_tok(&Token::LParen) {
            match self.next() {
                Some(Token::IntLit(_)) => {}
                _ => return Err(self.err("expected length in type suffix")),
            }
            self.expect_tok(Token::RParen)?;
        }
        let mut spec = ColumnSpec {
            name,
            data_type,
            not_null: false,
            unique: false,
        };
        loop {
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                spec.not_null = true;
            } else if self.eat_kw("UNIQUE") {
                spec.unique = true;
            } else if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                spec.not_null = true;
                spec.unique = true;
            } else {
                break;
            }
        }
        Ok(spec)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_tok(&Token::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
            rows.push(row);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(InsertStmt {
            table,
            columns,
            rows,
        }))
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let join = if self.eat_tok(&Token::Comma) {
                Join {
                    kind: JoinKind::Cross,
                    table: self.table_ref()?,
                    on: None,
                }
            } else if self.peek().is_some_and(|t| {
                t.is_kw("JOIN") || t.is_kw("INNER") || t.is_kw("LEFT") || t.is_kw("CROSS")
            }) {
                self.join_clause()?
            } else {
                break;
            };
            // The plan joins the tables in a left-deep chain: one level each.
            if joins.len() == MAX_DEPTH {
                return Err(self.too_deep());
            }
            joins.push(join);
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            if group_by.is_empty() {
                return Err(self.err("HAVING requires GROUP BY"));
            }
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderItem { expr, ascending });
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::IntLit(n)) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_tok(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*` (bare or quoted qualifier)
        if let (
            Some(Token::Ident(q)) | Some(Token::QuotedIdent(q)),
            Some(Token::Dot),
            Some(Token::Star),
        ) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            // Bare alias: an identifier that is not a clause keyword.
            match self.peek() {
                Some(Token::Ident(s))
                    if ![
                        "FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT",
                        "CROSS", "ON", "AND", "OR", "AS", "ASC", "DESC",
                    ]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    Some(self.ident()?)
                }
                Some(Token::QuotedIdent(_)) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        // A table name may be schema-qualified (`gridfed_monitor.spans`);
        // the dotted pair is kept as one name the resolver sees verbatim.
        let mut name = self.ident()?;
        if self.eat_tok(&Token::Dot) {
            name = format!("{name}.{}", self.ident()?);
        }
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                Some(Token::Ident(s))
                    if ![
                        "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT", "CROSS", "ON",
                    ]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    Some(self.ident()?)
                }
                Some(Token::QuotedIdent(_)) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(TableRef { name, alias })
    }

    fn join_clause(&mut self) -> Result<Join> {
        let kind = if self.eat_kw("LEFT") {
            self.eat_kw("OUTER");
            self.expect_kw("JOIN")?;
            JoinKind::LeftOuter
        } else if self.eat_kw("CROSS") {
            self.expect_kw("JOIN")?;
            JoinKind::Cross
        } else {
            self.eat_kw("INNER");
            self.expect_kw("JOIN")?;
            JoinKind::Inner
        };
        let table = self.table_ref()?;
        let on = if kind == JoinKind::Cross {
            None
        } else {
            self.expect_kw("ON")?;
            Some(self.expr()?)
        };
        Ok(Join { kind, table, on })
    }

    // ---- expressions (precedence climbing) ----

    /// One level deeper into a parenthesis, call or prefix operator, or a
    /// typed error past [`MAX_NESTING`]. The matching `self.nesting -= 1`
    /// follows the nested parse; an error abandons the parser, so it never
    /// has to run on one.
    fn enter(&mut self) -> Result<()> {
        if self.nesting == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        Ok(())
    }

    /// A node of depth `depth` (one more than its deepest child), or a typed
    /// error past [`MAX_DEPTH`] — raised while building, so no tree deeper
    /// than the limit is ever built (or dropped).
    fn node(&self, depth: usize) -> Result<usize> {
        if depth > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(depth)
    }

    fn too_deep(&self) -> SqlError {
        SqlError::TooDeep {
            pos: self.pos,
            limit: MAX_DEPTH,
        }
    }

    /// Entry: a whole expression.
    pub fn expr(&mut self) -> Result<Expr> {
        self.expr_bp(0).map(|(e, _)| e)
    }

    /// The expression starting here whose infix operators all bind at least
    /// as tightly as `min`, with its depth: precedence climbing over the
    /// grammar `OR < AND < NOT < predicate < + - < * / % < sign < primary`,
    /// which takes one stack frame per nested parenthesis, call or prefix
    /// operator and none per binary operator.
    fn expr_bp(&mut self, min: u8) -> Result<Node> {
        let (mut lhs, mut depth, mut bound) = self.prefix(min)?;
        // `bound`: how tightly the operator at the top of `lhs` binds. An
        // operator applies only to a left operand at least as tight as its
        // own level (strictly tighter for the non-associative predicates).
        while let Some((op, bp)) = self.infix() {
            let left_min = if bp == PREDICATE { ADDITIVE } else { bp };
            if bp < min || bound < left_min {
                break;
            }
            let (expr, d) = self.apply(op, bp, lhs, depth)?;
            (lhs, depth, bound) = (expr, d, bp);
        }
        Ok((lhs, depth))
    }

    /// A prefix `NOT` or sign and its operand, a parenthesized expression,
    /// or a primary; and how tightly the result binds. `NOT` is an operator
    /// only where an operand of `AND`/`OR` may start, as it always was.
    fn prefix(&mut self, min: u8) -> Result<(Expr, usize, u8)> {
        if min <= NOT && self.eat_kw("NOT") {
            self.enter()?;
            let (inner, d) = self.expr_bp(NOT)?;
            self.nesting -= 1;
            let expr = Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            };
            return Ok((expr, self.node(d + 1)?, NOT));
        }
        if self.eat_tok(&Token::Minus) {
            self.enter()?;
            let (inner, d) = self.expr_bp(UNARY)?;
            self.nesting -= 1;
            // Fold negative literals immediately so `-3` is a literal.
            let (expr, depth) = match inner {
                Expr::Literal(Value::Int(i)) => (Expr::Literal(Value::Int(-i)), d),
                Expr::Literal(Value::Float(x)) => (Expr::Literal(Value::Float(-x)), d),
                other => (
                    Expr::Unary {
                        op: UnaryOp::Neg,
                        expr: Box::new(other),
                    },
                    self.node(d + 1)?,
                ),
            };
            return Ok((expr, depth, UNARY));
        }
        if self.eat_tok(&Token::Plus) {
            self.enter()?;
            let (inner, d) = self.expr_bp(UNARY)?;
            self.nesting -= 1;
            return Ok((inner, d, UNARY));
        }
        if self.eat_tok(&Token::LParen) {
            self.enter()?;
            let (inner, d) = self.expr_bp(0)?;
            self.nesting -= 1;
            self.expect_tok(Token::RParen)?;
            return Ok((inner, d, ATOM));
        }
        let (expr, depth) = self.primary()?;
        Ok((expr, depth, ATOM))
    }

    /// The infix or postfix operator at the cursor, unconsumed, and its
    /// binding power.
    fn infix(&self) -> Option<(Infix, u8)> {
        let tok = self.peek()?;
        let binary = |op, bp| Some((Infix::Binary(op), bp));
        match tok {
            Token::Eq => binary(BinaryOp::Eq, PREDICATE),
            Token::NotEq => binary(BinaryOp::NotEq, PREDICATE),
            Token::Lt => binary(BinaryOp::Lt, PREDICATE),
            Token::LtEq => binary(BinaryOp::LtEq, PREDICATE),
            Token::Gt => binary(BinaryOp::Gt, PREDICATE),
            Token::GtEq => binary(BinaryOp::GtEq, PREDICATE),
            Token::Plus => binary(BinaryOp::Add, ADDITIVE),
            Token::Minus => binary(BinaryOp::Sub, ADDITIVE),
            Token::Star => binary(BinaryOp::Mul, MULTIPLICATIVE),
            Token::Slash => binary(BinaryOp::Div, MULTIPLICATIVE),
            Token::Percent => binary(BinaryOp::Mod, MULTIPLICATIVE),
            t if t.is_kw("OR") => binary(BinaryOp::Or, OR),
            t if t.is_kw("AND") => binary(BinaryOp::And, AND),
            t if t.is_kw("IS") => Some((Infix::Is, PREDICATE)),
            t => {
                let negated = t.is_kw("NOT");
                let kw = if negated {
                    self.tokens.get(self.pos + 1)?
                } else {
                    t
                };
                let form = if kw.is_kw("IN") {
                    Infix::In { negated }
                } else if kw.is_kw("BETWEEN") {
                    Infix::Between { negated }
                } else if kw.is_kw("LIKE") {
                    Infix::Like { negated }
                } else {
                    return None;
                };
                Some((form, PREDICATE))
            }
        }
    }

    /// Consume `op` (of binding power `bp`) and its right-hand side,
    /// applied to `left` (of depth `depth`).
    fn apply(&mut self, op: Infix, bp: u8, left: Expr, depth: usize) -> Result<Node> {
        let left = Box::new(left);
        match op {
            Infix::Binary(op) => {
                self.pos += 1;
                // Left-associative: the right side binds tighter. A
                // comparison's right side is additive, as its left is.
                let right_min = if bp == PREDICATE { ADDITIVE } else { bp + 1 };
                let (right, d) = self.expr_bp(right_min)?;
                let depth = self.node(depth.max(d) + 1)?;
                Ok((
                    Expr::Binary {
                        left,
                        op,
                        right: Box::new(right),
                    },
                    depth,
                ))
            }
            Infix::Is => {
                self.pos += 1;
                let negated = self.eat_kw("NOT");
                self.expect_kw("NULL")?;
                let depth = self.node(depth + 1)?;
                Ok((
                    Expr::IsNull {
                        expr: left,
                        negated,
                    },
                    depth,
                ))
            }
            Infix::In { negated } => {
                self.pos += 1 + usize::from(negated);
                self.expect_tok(Token::LParen)?;
                let mut list = Vec::new();
                let mut deepest = depth;
                loop {
                    let (item, d) = self.expr_bp(ADDITIVE)?;
                    deepest = deepest.max(d);
                    list.push(item);
                    if !self.eat_tok(&Token::Comma) {
                        break;
                    }
                }
                self.expect_tok(Token::RParen)?;
                let depth = self.node(deepest + 1)?;
                Ok((
                    Expr::InList {
                        expr: left,
                        list,
                        negated,
                    },
                    depth,
                ))
            }
            Infix::Between { negated } => {
                self.pos += 1 + usize::from(negated);
                let (lo, d_lo) = self.expr_bp(ADDITIVE)?;
                self.expect_kw("AND")?;
                let (hi, d_hi) = self.expr_bp(ADDITIVE)?;
                let depth = self.node(depth.max(d_lo).max(d_hi) + 1)?;
                Ok((
                    Expr::Between {
                        expr: left,
                        lo: Box::new(lo),
                        hi: Box::new(hi),
                        negated,
                    },
                    depth,
                ))
            }
            Infix::Like { negated } => {
                self.pos += 1 + usize::from(negated);
                let pattern = match self.next() {
                    Some(Token::StringLit(s)) => s,
                    _ => return Err(self.err("expected string literal after LIKE")),
                };
                let depth = self.node(depth + 1)?;
                Ok((
                    Expr::Like {
                        expr: left,
                        pattern,
                        negated,
                    },
                    depth,
                ))
            }
        }
    }

    /// A literal, column or call, with its depth.
    fn primary(&mut self) -> Result<Node> {
        match self.next() {
            Some(Token::IntLit(i)) => Ok((Expr::Literal(Value::Int(i)), 1)),
            Some(Token::FloatLit(x)) => Ok((Expr::Literal(Value::Float(x)), 1)),
            Some(Token::StringLit(s)) => Ok((Expr::Literal(Value::Text(s)), 1)),
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("NULL") => {
                Ok((Expr::Literal(Value::Null), 1))
            }
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("TRUE") => {
                Ok((Expr::Literal(Value::Bool(true)), 1))
            }
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("FALSE") => {
                Ok((Expr::Literal(Value::Bool(false)), 1))
            }
            Some(Token::Ident(name)) | Some(Token::QuotedIdent(name)) => {
                // function call?
                if self.peek() == Some(&Token::LParen) {
                    if let Some(func) = ScalarFunc::parse(&name) {
                        self.pos += 1; // consume '('
                        self.enter()?;
                        let mut args = Vec::new();
                        let mut deepest = 0;
                        loop {
                            let (arg, d) = self.expr_bp(0)?;
                            deepest = deepest.max(d);
                            args.push(arg);
                            if !self.eat_tok(&Token::Comma) {
                                break;
                            }
                        }
                        self.nesting -= 1;
                        self.expect_tok(Token::RParen)?;
                        if !func.arity().contains(&args.len()) {
                            return Err(self.err(format!(
                                "{} takes {:?} arguments, got {}",
                                func.sql(),
                                func.arity(),
                                args.len()
                            )));
                        }
                        let depth = self.node(deepest + 1)?;
                        return Ok((Expr::Func { func, args }, depth));
                    }
                    if let Some(func) = AggFunc::parse(&name) {
                        self.pos += 1; // consume '('
                        let distinct = self.eat_kw("DISTINCT");
                        let (arg, deepest) = if self.eat_tok(&Token::Star) {
                            if func != AggFunc::Count {
                                return Err(self.err("only COUNT accepts *"));
                            }
                            (None, 0)
                        } else {
                            self.enter()?;
                            let (arg, d) = self.expr_bp(0)?;
                            self.nesting -= 1;
                            (Some(Box::new(arg)), d)
                        };
                        self.expect_tok(Token::RParen)?;
                        let depth = self.node(deepest + 1)?;
                        return Ok((
                            Expr::Aggregate {
                                func,
                                arg,
                                distinct,
                            },
                            depth,
                        ));
                    }
                    return Err(self.err(format!("unknown function `{name}`")));
                }
                // qualified column?
                if self.eat_tok(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok((
                        Expr::Column(ColumnRef {
                            qualifier: Some(name),
                            column: col,
                        }),
                        1,
                    ));
                }
                Ok((
                    Expr::Column(ColumnRef {
                        qualifier: None,
                        column: name,
                    }),
                    1,
                ))
            }
            other => Err(self.err(format!(
                "expected expression, found {}",
                other.map_or("end of input".into(), |t| t.describe())
            ))),
        }
    }
}

/// An infix or postfix operator of the expression grammar.
enum Infix {
    /// `OR`, `AND`, a comparison, or arithmetic.
    Binary(BinaryOp),
    /// `IS [NOT] NULL`.
    Is,
    /// `[NOT] IN (…)`.
    In { negated: bool },
    /// `[NOT] BETWEEN … AND …`.
    Between { negated: bool },
    /// `[NOT] LIKE '…'`.
    Like { negated: bool },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        parse_select(sql).unwrap()
    }

    #[test]
    fn having_clause() {
        let s = sel("SELECT det, COUNT(*) FROM t GROUP BY det HAVING COUNT(*) > 3");
        assert!(s.having.is_some());
        // HAVING without GROUP BY is rejected.
        assert!(parse_select("SELECT a FROM t HAVING a > 1").is_err());
    }

    #[test]
    fn distinct_flag() {
        assert!(sel("SELECT DISTINCT a FROM t").distinct);
        assert!(!sel("SELECT a FROM t").distinct);
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b FROM t");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.name, "t");
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn select_star_and_qualified_star() {
        let s = sel("SELECT * FROM t");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        let s = sel("SELECT t.* FROM t");
        assert_eq!(s.items, vec![SelectItem::QualifiedWildcard("t".into())]);
    }

    #[test]
    fn where_precedence_or_and() {
        let s = sel("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
        // OR at top, AND below.
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::Or,
                right,
                ..
            } => match *right {
                Expr::Binary {
                    op: BinaryOp::And, ..
                } => {}
                other => panic!("expected AND on right, got {other:?}"),
            },
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT a + b * 2 FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Binary {
                    op: BinaryOp::Add,
                    right,
                    ..
                } => assert!(matches!(
                    **right,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                )),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_on_clause() {
        let s = sel("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.k = c.k");
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::LeftOuter);
        assert!(s.joins[1].on.is_some());
    }

    #[test]
    fn comma_join_is_cross() {
        let s = sel("SELECT * FROM a, b WHERE a.id = b.id");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].kind, JoinKind::Cross);
        assert!(s.joins[0].on.is_none());
    }

    #[test]
    fn aliases_bare_and_as() {
        let s = sel("SELECT e.energy AS en, x total FROM events e, marts AS m");
        assert_eq!(s.from.alias.as_deref(), Some("e"));
        assert_eq!(s.joins[0].table.alias.as_deref(), Some("m"));
        match &s.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("en")),
            _ => panic!(),
        }
        match &s.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            _ => panic!(),
        }
    }

    #[test]
    fn group_order_limit() {
        let s = sel(
            "SELECT detector, COUNT(*) FROM events GROUP BY detector ORDER BY detector DESC LIMIT 10",
        );
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].ascending);
        assert_eq!(s.limit, Some(10));
        assert!(s.is_aggregate());
    }

    #[test]
    fn predicates_in_between_like_isnull() {
        let s = sel(
            "SELECT * FROM t WHERE a IN (1,2,3) AND b NOT BETWEEN 1 AND 9 \
             AND c LIKE 'run%' AND d IS NOT NULL AND e NOT IN (4)",
        );
        let w = s.where_clause.unwrap();
        let cj = w.conjuncts();
        assert_eq!(cj.len(), 5);
        assert!(matches!(cj[0], Expr::InList { negated: false, .. }));
        assert!(matches!(cj[1], Expr::Between { negated: true, .. }));
        assert!(matches!(cj[2], Expr::Like { negated: false, .. }));
        assert!(matches!(cj[3], Expr::IsNull { negated: true, .. }));
        assert!(matches!(cj[4], Expr::InList { negated: true, .. }));
    }

    #[test]
    fn aggregates() {
        let s = sel("SELECT COUNT(*), SUM(x), AVG(t.y), COUNT(DISTINCT z) FROM t");
        assert!(s.is_aggregate());
        match &s.items[3] {
            SelectItem::Expr {
                expr: Expr::Aggregate { distinct, .. },
                ..
            } => assert!(distinct),
            _ => panic!(),
        }
    }

    #[test]
    fn count_star_only_for_count() {
        assert!(parse_select("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn negative_literals_fold() {
        let s = sel("SELECT * FROM t WHERE x = -5 AND y = -2.5");
        let cj_owned = s.where_clause.unwrap();
        let cj = cj_owned.conjuncts();
        match cj[0] {
            Expr::Binary { right, .. } => {
                assert_eq!(**right, Expr::Literal(Value::Int(-5)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn create_table_with_constraints() {
        let s = parse(
            "CREATE TABLE ev (e_id INT PRIMARY KEY, en FLOAT NOT NULL, tag VARCHAR(64) UNIQUE)",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.columns.len(), 3);
                assert!(ct.columns[0].unique && ct.columns[0].not_null);
                assert!(ct.columns[1].not_null && !ct.columns[1].unique);
                assert!(ct.columns[2].unique && !ct.columns[2].not_null);
                assert_eq!(ct.columns[2].data_type, DataType::Text);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert(ins) => {
                assert_eq!(ins.columns, vec!["a", "b"]);
                assert_eq!(ins.rows.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn create_view() {
        let s = parse("CREATE VIEW v AS SELECT a FROM t WHERE a > 0").unwrap();
        match s {
            Statement::CreateView(v) => {
                assert_eq!(v.name, "v");
                assert!(v.query.where_clause.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT a FROM t garbage garbage").is_err());
        // trailing semicolon fine
        assert!(parse("SELECT a FROM t;").is_ok());
    }

    #[test]
    fn null_true_false_literals() {
        let s = sel("SELECT * FROM t WHERE a IS NULL AND b = TRUE AND c = NULL");
        let w = s.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 3);
    }

    #[test]
    fn parenthesized_expressions() {
        let s = sel("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3");
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                ..
            } => assert!(matches!(
                *left,
                Expr::Binary {
                    op: BinaryOp::Or,
                    ..
                }
            )),
            _ => panic!(),
        }
    }

    #[test]
    fn not_operator() {
        let s = sel("SELECT * FROM t WHERE NOT a = 1");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn unknown_function_is_error() {
        assert!(parse_select("SELECT FOO(x) FROM t").is_err());
    }

    #[test]
    fn scalar_functions_parse_with_arity_checks() {
        let s = sel("SELECT ABS(x), ROUND(y, 2), COALESCE(a, b, 0) FROM t");
        assert_eq!(s.items.len(), 3);
        assert!(parse_select("SELECT ABS(x, y) FROM t").is_err());
        assert!(parse_select("SELECT ROUND(x, 1, 2) FROM t").is_err());
    }

    #[test]
    fn mixed_vendor_quoting_accepted() {
        let s = sel(r#"SELECT `a`, "b", [c] FROM [my table]"#);
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.from.name, "my table");
    }
}
