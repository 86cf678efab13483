//! Recursive-descent parser for the supported `SELECT` subset.

use crate::ast::{ColumnRef, Predicate, SelectStmt, TableRef, Value};
use crate::lexer::Token;
use std::fmt;

/// Parse failure with token position.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    pub position: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at token {}", self.message, self.position)
    }
}

impl std::error::Error for ParseError {}

const AGG_FUNCS: &[&str] = &["sum", "count", "avg", "min", "max", "stddev", "median"];

/// Parse a full `SELECT` statement from a token stream.
pub fn parse_select(tokens: &[Token]) -> Result<SelectStmt, ParseError> {
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select()?;
    if p.pos != tokens.len() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Keyword(k)) if k == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    /// SELECT … FROM … [WHERE …] [GROUP BY …] [HAVING …] [ORDER BY …]
    /// [LIMIT n]
    fn select(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_keyword("SELECT")?;
        self.eat_keyword("DISTINCT");
        let aggregates = self.skip_select_list()?;

        self.expect_keyword("FROM")?;
        let mut from = vec![self.table_ref()?];
        let mut predicates = Vec::new();
        loop {
            if self.eat(&Token::Comma) {
                from.push(self.table_ref()?);
                continue;
            }
            // [INNER|LEFT|RIGHT [OUTER]] JOIN t ON cond
            let mark = self.pos;
            if self.eat_keyword("LEFT") || self.eat_keyword("RIGHT") {
                self.eat_keyword("OUTER");
            } else {
                self.eat_keyword("INNER");
            }
            if self.eat_keyword("JOIN") {
                from.push(self.table_ref()?);
                self.expect_keyword("ON")?;
                self.conjunction(&mut predicates)?;
                continue;
            }
            self.pos = mark;
            break;
        }

        if self.eat_keyword("WHERE") {
            self.conjunction(&mut predicates)?;
        }

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("HAVING") {
            // Parse and discard (post-aggregation filters don't influence
            // partitioning decisions).
            let mut sink = Vec::new();
            self.conjunction(&mut sink)?;
        }
        let mut has_order_by = false;
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            has_order_by = true;
            loop {
                let _ = self.column_ref()?;
                let _ = self.eat_keyword("ASC") || self.eat_keyword("DESC");
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("LIMIT") {
            match self.peek() {
                Some(Token::Number(_)) => self.pos += 1,
                _ => return Err(self.err("expected LIMIT count")),
            }
        }

        Ok(SelectStmt {
            aggregates,
            from,
            predicates,
            group_by,
            has_order_by,
        })
    }

    /// Skip the projection list up to `FROM`, counting aggregate calls.
    fn skip_select_list(&mut self) -> Result<usize, ParseError> {
        let mut depth = 0usize;
        let mut aggregates = 0usize;
        loop {
            match self.peek() {
                None => return Err(self.err("unexpected end in select list")),
                Some(Token::Keyword(k)) if k == "FROM" && depth == 0 => return Ok(aggregates),
                Some(Token::LParen) => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(Token::RParen) => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| self.err("unbalanced parentheses"))?;
                    self.pos += 1;
                }
                Some(Token::Ident(name)) => {
                    if AGG_FUNCS.contains(&name.as_str())
                        && self.tokens.get(self.pos + 1) == Some(&Token::LParen)
                    {
                        aggregates += 1;
                    }
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.ident()?;
        // Optional [AS] alias (but not a keyword like WHERE).
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(a)) = self.peek() {
            let a = a.clone();
            self.pos += 1;
            Some(a)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.ident()?;
        if self.eat(&Token::Dot) {
            let col = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column: col,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.pos += 1;
                Ok(Value::Number(n))
            }
            Some(Token::Minus) => {
                self.pos += 1;
                match self.peek().cloned() {
                    Some(Token::Number(n)) => {
                        self.pos += 1;
                        Ok(Value::Number(-n))
                    }
                    _ => Err(self.err("expected number after minus")),
                }
            }
            Some(Token::String(s)) => {
                self.pos += 1;
                Ok(Value::String(s))
            }
            _ => Err(self.err("expected literal value")),
        }
    }

    /// Parse `pred (AND pred)*`, collapsing OR-groups into opaque filters.
    fn conjunction(&mut self, out: &mut Vec<Predicate>) -> Result<(), ParseError> {
        loop {
            let first = self.predicate()?;
            if self.peek_keyword("OR") {
                // Fold the whole disjunction into one opaque predicate.
                let mut cols = pred_columns(&first);
                while self.eat_keyword("OR") {
                    let next = self.predicate()?;
                    cols.extend(pred_columns(&next));
                }
                out.push(Predicate::Opaque { cols });
            } else {
                out.push(first);
            }
            if !self.eat_keyword("AND") {
                return Ok(());
            }
        }
    }

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        if self.eat(&Token::LParen) {
            let mut inner = Vec::new();
            self.conjunction(&mut inner)?;
            self.expect(&Token::RParen, ")")?;
            // A parenthesized conjunction of one predicate passes through;
            // larger groups become opaque (rare in practice).
            if inner.len() == 1 {
                if let Some(only) = inner.pop() {
                    return Ok(only);
                }
            }
            return Ok(Predicate::Opaque {
                cols: inner.iter().flat_map(pred_columns).collect(),
            });
        }
        if self.eat_keyword("NOT") {
            let inner = self.predicate()?;
            return Ok(match inner {
                Predicate::InSubquery { col, subquery, .. } => Predicate::InSubquery {
                    col,
                    negated: true,
                    subquery,
                },
                other @ (Predicate::ColEq(..)
                | Predicate::Cmp { .. }
                | Predicate::Between { .. }
                | Predicate::InList { .. }
                | Predicate::Opaque { .. }) => Predicate::Opaque {
                    cols: pred_columns(&other),
                },
            });
        }
        if self.eat_keyword("EXISTS") {
            self.expect(&Token::LParen, "( after EXISTS")?;
            let sub = self.select()?;
            self.expect(&Token::RParen, ") after subquery")?;
            return Ok(Predicate::InSubquery {
                col: None,
                negated: false,
                subquery: Box::new(sub),
            });
        }

        let col = self.column_ref()?;
        if self.eat_keyword("BETWEEN") {
            let lo = self.value()?;
            self.expect_keyword("AND")?;
            let hi = self.value()?;
            return Ok(Predicate::Between { col, lo, hi });
        }
        if self.eat_keyword("LIKE") {
            let v = self.value()?;
            return Ok(Predicate::Cmp {
                col,
                op: "LIKE".into(),
                value: v,
            });
        }
        if self.eat_keyword("IS") {
            self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Predicate::Opaque { cols: vec![col] });
        }
        let negated_in = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            self.expect(&Token::LParen, "( after IN")?;
            if self.peek_keyword("SELECT") {
                let sub = self.select()?;
                self.expect(&Token::RParen, ") after subquery")?;
                return Ok(Predicate::InSubquery {
                    col: Some(col),
                    negated: negated_in,
                    subquery: Box::new(sub),
                });
            }
            let mut values = vec![self.value()?];
            while self.eat(&Token::Comma) {
                values.push(self.value()?);
            }
            self.expect(&Token::RParen, ") after IN list")?;
            return Ok(Predicate::InList { col, values });
        }
        if negated_in {
            return Err(self.err("expected IN after NOT"));
        }

        let op = match self.peek() {
            Some(Token::Eq) => "=",
            Some(Token::Neq) => "<>",
            Some(Token::Lt) => "<",
            Some(Token::Le) => "<=",
            Some(Token::Gt) => ">",
            Some(Token::Ge) => ">=",
            _ => return Err(self.err("expected comparison operator")),
        }
        .to_string();
        self.pos += 1;

        // Column-to-column (join) or column-to-literal?
        if matches!(self.peek(), Some(Token::Ident(_))) && op == "=" {
            let rhs = self.column_ref()?;
            return Ok(Predicate::ColEq(col, rhs));
        }
        let value = self.value()?;
        Ok(Predicate::Cmp { col, op, value })
    }
}

fn pred_columns(p: &Predicate) -> Vec<ColumnRef> {
    match p {
        Predicate::ColEq(a, b) => vec![a.clone(), b.clone()],
        Predicate::Cmp { col, .. }
        | Predicate::Between { col, .. }
        | Predicate::InList { col, .. } => vec![col.clone()],
        Predicate::InSubquery { col, .. } => col.iter().cloned().collect(),
        Predicate::Opaque { cols } => cols.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(sql: &str) -> SelectStmt {
        parse_select(&tokenize(sql).unwrap()).unwrap()
    }

    #[test]
    fn comma_joins_and_where() {
        let s = parse(
            "SELECT sum(l.lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993",
        );
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.aggregates, 1);
        assert_eq!(s.predicates.len(), 2);
        assert!(matches!(s.predicates[0], Predicate::ColEq(..)));
        assert!(matches!(s.predicates[1], Predicate::Cmp { .. }));
    }

    #[test]
    fn explicit_join_on() {
        let s = parse(
            "SELECT * FROM customer c INNER JOIN orders o ON c.c_key = o.o_c_key \
             LEFT JOIN nation n ON c.c_n_key = n.n_key",
        );
        assert_eq!(s.from.len(), 3);
        assert_eq!(
            s.predicates
                .iter()
                .filter(|p| matches!(p, Predicate::ColEq(..)))
                .count(),
            2
        );
    }

    #[test]
    fn between_in_like() {
        let s = parse(
            "SELECT count(*) FROM part p WHERE p.p_size BETWEEN 1 AND 10 \
             AND p.p_brand IN ('b1', 'b2') AND p.p_name LIKE 'green'",
        );
        assert!(matches!(s.predicates[0], Predicate::Between { .. }));
        assert!(matches!(s.predicates[1], Predicate::InList { .. }));
        assert!(matches!(
            s.predicates[2],
            Predicate::Cmp { ref op, .. } if op == "LIKE"
        ));
    }

    #[test]
    fn nested_in_subquery() {
        let s = parse(
            "SELECT * FROM item i WHERE i.i_id IN \
             (SELECT ol.ol_i_id FROM orderline ol WHERE ol.ol_d_id = 3)",
        );
        match &s.predicates[0] {
            Predicate::InSubquery {
                col,
                negated,
                subquery,
            } => {
                assert_eq!(col.as_ref().unwrap().column, "i_id");
                assert!(!negated);
                assert_eq!(subquery.from[0].name, "orderline");
            }
            other => panic!("expected subquery, got {other:?}"),
        }
    }

    #[test]
    fn exists_subquery_and_not_in() {
        let s = parse(
            "SELECT * FROM supplier s WHERE EXISTS \
             (SELECT * FROM stock st WHERE st.s_su_key = s.su_key) \
             AND s.su_n_key NOT IN (SELECT n.n_key FROM nation n)",
        );
        assert_eq!(s.predicates.len(), 2);
        assert!(matches!(
            s.predicates[1],
            Predicate::InSubquery { negated: true, .. }
        ));
    }

    #[test]
    fn or_groups_become_opaque() {
        let s = parse("SELECT * FROM t WHERE t.a = 1 OR t.b = 2");
        match &s.predicates[0] {
            Predicate::Opaque { cols } => assert_eq!(cols.len(), 2),
            other => panic!("expected opaque, got {other:?}"),
        }
    }

    #[test]
    fn group_order_limit_tail() {
        let s = parse(
            "SELECT d.d_year, sum(l.lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey GROUP BY d.d_year \
             ORDER BY d.d_year DESC LIMIT 10",
        );
        assert_eq!(s.group_by.len(), 1);
        assert!(s.has_order_by);
    }

    #[test]
    fn trailing_tokens_rejected() {
        let t = tokenize("SELECT * FROM t WHERE t.a = 1 garbage more").unwrap();
        assert!(parse_select(&t).is_err());
    }

    #[test]
    fn case_expression_in_projection() {
        let s = parse(
            "SELECT CASE WHEN t.a = 1 THEN 2 ELSE 3 END, avg(t.b) FROM t \
             WHERE t.c > 0",
        );
        assert_eq!(s.aggregates, 1);
    }
}
