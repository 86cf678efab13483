//! Abstract syntax for the supported `SELECT` subset.

/// `table.column` or bare `column` reference (table resolved later via
/// aliases or column-name search).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

/// A table in the `FROM` list, with optional alias.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

/// Literal values in predicates.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    Number(f64),
    String(String),
}

/// A conjunctive predicate (the parser normalizes the `WHERE` clause and
/// `ON` conditions into one conjunction list; `OR` groups collapse into a
/// single opaque filter on their columns' tables).
#[derive(Clone, PartialEq, Debug)]
pub enum Predicate {
    /// `a.x = b.y` — a join (or a same-table equality, treated as filter).
    ColEq(ColumnRef, ColumnRef),
    /// `a.x <op> literal`.
    Cmp {
        col: ColumnRef,
        /// One of `=`, `<>`, `<`, `<=`, `>`, `>=`, `LIKE`.
        op: String,
        value: Value,
    },
    /// `a.x BETWEEN lo AND hi`.
    Between {
        col: ColumnRef,
        lo: Value,
        hi: Value,
    },
    /// `a.x IN (v1, v2, …)`.
    InList { col: ColumnRef, values: Vec<Value> },
    /// `a.x IN (SELECT …)` / correlated `EXISTS (SELECT …)` — the nested
    /// statement is kept whole and flattened during resolution.
    InSubquery {
        col: Option<ColumnRef>,
        negated: bool,
        subquery: Box<SelectStmt>,
    },
    /// An `OR` group or other opaque condition over the given columns.
    Opaque { cols: Vec<ColumnRef> },
}

/// A parsed `SELECT` statement.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SelectStmt {
    /// Number of aggregate functions in the projection (drives the CPU
    /// weight of the resolved query).
    pub aggregates: usize,
    pub from: Vec<TableRef>,
    pub predicates: Vec<Predicate>,
    pub group_by: Vec<ColumnRef>,
    pub has_order_by: bool,
}

impl SelectStmt {
    /// All table names referenced in `FROM` (not including subqueries).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.from.iter().map(|t| t.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_iterates_from_list() {
        let s = SelectStmt {
            from: vec![
                TableRef {
                    name: "a".into(),
                    alias: None,
                },
                TableRef {
                    name: "b".into(),
                    alias: Some("x".into()),
                },
            ],
            ..Default::default()
        };
        let names: Vec<&str> = s.table_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
