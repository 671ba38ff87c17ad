//! Diagnostic records and reports: severities, source spans, and both the
//! human text rendering and the JSON round-trip used by `rqtool lint
//! --json`.

use rq_metrics::json::{Json, JsonError};
use std::fmt;

/// How bad a finding is. The derived order puts `Error` first so sorting
/// a report ascending surfaces the most severe findings at the top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The query or program is degenerate or ill-formed: it cannot mean
    /// what was written (empty language, unsafe rule, arity clash).
    Error,
    /// Legal but suspicious: redundant structure, dead automaton parts,
    /// recursion outside the decidable fragment.
    Warning,
    /// A positive classification worth surfacing (e.g. "this recursion is
    /// transitive-closure-only, so containment is decidable").
    Info,
}

impl Severity {
    /// Stable lowercase name used in text and JSON renderings.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }

    fn from_name(name: &str) -> Option<Severity> {
        match name {
            "error" => Some(Severity::Error),
            "warning" => Some(Severity::Warning),
            "info" => Some(Severity::Info),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A 1-based source position, as reported by the `query_text` and Datalog
/// parsers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    pub line: usize,
    pub column: usize,
}

impl Span {
    pub fn new(line: usize, column: usize) -> Span {
        Span { line, column }
    }
}

/// One finding: a rule id (`RQA001`…), its slug, a severity, a message,
/// an optional source span and free-form notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `RQA004`.
    pub rule: String,
    /// Human-readable rule slug, e.g. `fold-redundant-inverse`.
    pub slug: String,
    pub severity: Severity,
    pub message: String,
    pub span: Option<Span>,
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Attach a span (builder-style).
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attach a note (builder-style).
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Render as `origin:line:col: severity[RULE] slug: message` plus
    /// indented notes.
    pub fn render_text(&self, origin: &str) -> String {
        let mut out = String::new();
        out.push_str(origin);
        if let Some(span) = self.span {
            out.push_str(&format!(":{}:{}", span.line, span.column));
        }
        out.push_str(&format!(
            ": {}[{}] {}: {}",
            self.severity, self.rule, self.slug, self.message
        ));
        for note in &self.notes {
            out.push_str(&format!("\n    note: {note}"));
        }
        out
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("rule".to_owned(), Json::Str(self.rule.clone())),
            ("slug".to_owned(), Json::Str(self.slug.clone())),
            (
                "severity".to_owned(),
                Json::Str(self.severity.name().to_owned()),
            ),
            ("message".to_owned(), Json::Str(self.message.clone())),
        ];
        if let Some(span) = self.span {
            fields.push((
                "span".to_owned(),
                Json::Obj(vec![
                    ("line".to_owned(), Json::Num(span.line as f64)),
                    ("column".to_owned(), Json::Num(span.column as f64)),
                ]),
            ));
        }
        if !self.notes.is_empty() {
            fields.push((
                "notes".to_owned(),
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<Diagnostic, String> {
        let field_str = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("diagnostic is missing string field {key:?}"))
        };
        let severity_name = field_str("severity")?;
        let severity = Severity::from_name(&severity_name)
            .ok_or_else(|| format!("unknown severity {severity_name:?}"))?;
        let span = match v.get("span") {
            None => None,
            Some(s) => {
                let dim = |key: &str| {
                    s.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("span is missing numeric field {key:?}"))
                };
                Some(Span::new(dim("line")? as usize, dim("column")? as usize))
            }
        };
        let notes = match v.get("notes") {
            None => Vec::new(),
            Some(n) => n
                .as_arr()
                .ok_or("notes must be an array")?
                .iter()
                .map(|x| x.as_str().map(str::to_owned).ok_or("note must be a string"))
                .collect::<Result<_, _>>()?,
        };
        Ok(Diagnostic {
            rule: field_str("rule")?,
            slug: field_str("slug")?,
            severity,
            message: field_str("message")?,
            span,
            notes,
        })
    }
}

/// An ordered collection of diagnostics produced by one lint run over one
/// input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    /// Append a finding, recording it in the `rq_analyze_diagnostics_total`
    /// metric family.
    pub fn push(&mut self, d: Diagnostic) {
        crate::metrics::diagnostic(d.severity);
        self.diagnostics.push(d);
    }

    /// Append every finding from another report.
    pub fn merge(&mut self, other: Report) {
        // Findings were already counted when pushed into `other`.
        self.diagnostics.extend(other.diagnostics);
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Sort findings by severity (errors first), then by span.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (a.severity, a.span, &a.rule).cmp(&(b.severity, b.span, &b.rule)));
    }

    /// Render all findings, one block per diagnostic, prefixed by
    /// `origin` (typically a file path or `<query>`).
    pub fn render_text(&self, origin: &str) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render_text(origin))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// JSON value form: `{"diagnostics":[…]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "diagnostics".to_owned(),
            Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
        )])
    }

    /// Parse a report back from its JSON text (inverse of
    /// [`Report::to_json`] + [`Json::emit`]). Does not touch metrics.
    pub fn from_json_text(text: &str) -> Result<Report, String> {
        let v = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        let arr = v
            .get("diagnostics")
            .and_then(Json::as_arr)
            .ok_or("report is missing the \"diagnostics\" array")?;
        let diagnostics = arr
            .iter()
            .map(Diagnostic::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Report { diagnostics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic {
            rule: "RQA001".into(),
            slug: "empty-language".into(),
            severity: Severity::Error,
            message: "the query denotes the empty language".into(),
            span: Some(Span::new(3, 14)),
            notes: vec!["note with \"quotes\" and\nnewline".into()],
        });
        r.push(Diagnostic {
            rule: "RQD006".into(),
            slug: "regular-recursion".into(),
            severity: Severity::Info,
            message: "recursion is transitive-closure-only".into(),
            span: None,
            notes: vec![],
        });
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let text = r.to_json().emit();
        let back = Report::from_json_text(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn text_rendering_includes_span_and_notes() {
        let r = sample();
        let text = r.render_text("queries.cq");
        assert!(text.contains("queries.cq:3:14: error[RQA001] empty-language:"));
        assert!(text.contains("\n    note: note with"));
        assert!(text.contains("queries.cq: info[RQD006]"), "{text}");
    }

    #[test]
    fn severity_orders_errors_first() {
        let mut r = sample();
        r.diagnostics.reverse();
        r.sort();
        assert_eq!(r.diagnostics[0].rule, "RQA001");
        assert!(r.has_errors());
        assert!(!r.is_clean());
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        for bad in [
            "{}",
            r#"{"diagnostics":[{}]}"#,
            r#"{"diagnostics":[{"rule":"X","slug":"s","severity":"fatal","message":"m"}]}"#,
            r#"{"diagnostics":[{"rule":"X","slug":"s","severity":"error","message":"m","span":{"line":1}}]}"#,
        ] {
            assert!(Report::from_json_text(bad).is_err(), "{bad:?}");
        }
    }
}
