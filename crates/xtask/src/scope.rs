//! Scope analysis over the masked code view: test-only lines and
//! enclosing-item attribution.
//!
//! Two passes share the brace-tracked view of a file:
//!
//! * [`test_line_flags`] — which lines belong to `#[cfg(test)]` /
//!   `#[test]` items (the no-panic and float-eq rules exempt test code;
//!   `unwrap` in a unit test is idiomatic).
//! * [`item_paths`] — the innermost named item (`fn` / `impl` / `mod` /
//!   `trait` / `struct` / `enum` / `union`) enclosing each line, as a
//!   `::`-joined path such as `ScoringCache::evaluate_conditioned`. Findings
//!   carry this so reports can attribute a violation to a function
//!   rather than a raw line number.
//!
//! Both walk the token stream / byte view produced by [`crate::lexer`],
//! so comments and literal contents can never open or close a scope.

/// Returns one flag per line: `true` where the line belongs to a
/// `#[cfg(test)]` / `#[test]` item, including the attribute lines.
pub fn test_line_flags(masked_code: &str) -> Vec<bool> {
    let bytes = masked_code.as_bytes();
    let n = bytes.len();
    if n == 0 {
        return vec![false];
    }

    // Line index of every byte offset, so spans convert to line ranges.
    let mut line_of = Vec::with_capacity(n);
    let mut line = 0usize;
    for &b in bytes {
        line_of.push(line);
        if b == b'\n' {
            line += 1;
        }
    }
    let line_count = line + 1;
    let mut flags = vec![false; line_count];

    let mut i = 0;
    while i < n {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let Some((attr_text, attr_end)) = read_attribute(bytes, i) else {
            i += 1;
            continue;
        };
        if !is_test_attribute(&attr_text) {
            i = attr_end;
            continue;
        }
        let start_line = line_of[i];
        let end = skip_item_after(bytes, attr_end);
        let end_line = line_of[end.min(n.saturating_sub(1))];
        for flag in flags
            .iter_mut()
            .take((end_line + 1).min(line_count))
            .skip(start_line)
        {
            *flag = true;
        }
        i = end;
    }
    flags
}

/// One entry on the brace stack of the item scanner.
struct Frame {
    /// `Some(path)` for a named item (full `::`-joined path), `None` for
    /// anonymous blocks (closures, `match` arms, plain `{}`).
    path: Option<String>,
    /// 0-based line of the item's header keyword (`fn`, `impl`, …).
    header_line: usize,
}

/// Header state while scanning `impl … {`: the self-type is the last
/// path segment after `for` when present (`impl Display for Grid` →
/// `Grid`), else the last segment of the type being implemented.
struct ImplHeader {
    line: usize,
    last_ident: Option<String>,
    for_target: Option<String>,
    saw_for: bool,
    saw_where: bool,
    angle_depth: usize,
}

impl ImplHeader {
    fn feed(&mut self, ident: &str) {
        if self.saw_where || self.angle_depth > 0 {
            return;
        }
        match ident {
            "for" => self.saw_for = true,
            "where" => self.saw_where = true,
            "dyn" | "const" | "unsafe" => {}
            _ if self.saw_for => self.for_target = Some(ident.to_string()),
            _ => self.last_ident = Some(ident.to_string()),
        }
    }

    fn name(&self) -> String {
        self.for_target
            .clone()
            .or_else(|| self.last_ident.clone())
            .unwrap_or_else(|| "impl".to_string())
    }
}

/// Keywords that may legally precede an item keyword; used to tell an
/// item header (`pub fn f`) from a type position (`-> impl Iterator`,
/// `type F = fn()`).
fn is_item_prefix_ident(text: &str) -> bool {
    matches!(
        text,
        "pub" | "unsafe" | "async" | "const" | "extern" | "default" | "crate" | "in"
    )
}

/// Returns, for each line, the `::`-joined path of the innermost named
/// item enclosing it (`None` at module top level). The header lines of
/// an item — signature, generics, where-clause — attribute to the item
/// itself, and inner items shadow outer ones line by line.
pub fn item_paths(masked_code: &str) -> Vec<Option<String>> {
    let toks = crate::lexer::tokens(masked_code);
    let line_count = masked_code.lines().count().max(1);
    let mut paths: Vec<Option<String>> = vec![None; line_count];
    let mut assigned = vec![false; line_count];

    let mut stack: Vec<Frame> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    // Pending named-item header: `(name, header_line)` once the name
    // ident is read, consumed by the `{` that opens the body.
    let mut pending: Option<(String, usize)> = None;
    // Set right after an item keyword; the next ident becomes the name.
    let mut awaiting_name: Option<usize> = None;
    let mut impl_header: Option<ImplHeader> = None;
    let mut paren_depth = 0usize;
    // Previous significant token decides whether a keyword sits in item
    // position; `None` at start of file (which is item position).
    let mut prev: Option<crate::lexer::Token> = None;

    let close_frame = |frame: Frame,
                       end_line: usize,
                       names: &mut Vec<String>,
                       paths: &mut Vec<Option<String>>,
                       assigned: &mut Vec<bool>| {
        if frame.path.is_none() {
            return;
        }
        names.pop();
        for l in frame.header_line..=end_line.min(line_count - 1) {
            if !assigned[l] {
                paths[l] = frame.path.clone();
                assigned[l] = true;
            }
        }
    };

    for tok in &toks {
        match tok {
            crate::lexer::Token::Punct { ch, line } => {
                if let Some(h) = impl_header.as_mut() {
                    match ch {
                        '<' => h.angle_depth += 1,
                        '>' => h.angle_depth = h.angle_depth.saturating_sub(1),
                        _ => {}
                    }
                }
                match ch {
                    '(' => paren_depth += 1,
                    ')' => paren_depth = paren_depth.saturating_sub(1),
                    '{' => {
                        let named = if let Some(h) = impl_header.take() {
                            Some((h.name(), h.line))
                        } else {
                            pending.take()
                        };
                        awaiting_name = None;
                        let frame = match named {
                            Some((name, header_line)) => {
                                names.push(name);
                                Frame {
                                    path: Some(names.join("::")),
                                    header_line,
                                }
                            }
                            None => Frame {
                                path: None,
                                header_line: *line,
                            },
                        };
                        stack.push(frame);
                    }
                    '}' => {
                        if let Some(frame) = stack.pop() {
                            close_frame(frame, *line, &mut names, &mut paths, &mut assigned);
                        }
                    }
                    ';' if paren_depth == 0 => {
                        // `mod tests;`, `type F = fn();`, trait method
                        // declarations: no body, nothing to attribute.
                        pending = None;
                        awaiting_name = None;
                        impl_header = None;
                    }
                    _ => {}
                }
            }
            crate::lexer::Token::Ident { text, line } => {
                if let Some(h) = impl_header.as_mut() {
                    h.feed(text);
                } else if awaiting_name.is_some() {
                    let header_line = awaiting_name.take().unwrap_or(*line);
                    pending = Some((text.clone(), header_line));
                } else if paren_depth == 0 && pending.is_none() && in_item_position(prev.as_ref()) {
                    match text.as_str() {
                        "fn" | "mod" | "trait" | "struct" | "enum" | "union" => {
                            awaiting_name = Some(*line);
                        }
                        "impl" => {
                            impl_header = Some(ImplHeader {
                                line: *line,
                                last_ident: None,
                                for_target: None,
                                saw_for: false,
                                saw_where: false,
                                angle_depth: 0,
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        prev = Some(tok.clone());
    }
    // Unclosed scopes at EOF still attribute their lines.
    let last_line = line_count - 1;
    while let Some(frame) = stack.pop() {
        close_frame(frame, last_line, &mut names, &mut paths, &mut assigned);
    }
    paths
}

/// Whether a keyword following `prev` starts an item header.
fn in_item_position(prev: Option<&crate::lexer::Token>) -> bool {
    match prev {
        None => true,
        Some(crate::lexer::Token::Punct { ch, .. }) => {
            // After a block, statement, attribute (`]`), visibility
            // group (`pub(crate)` ends in `)`), or `extern "C"` quote.
            matches!(ch, '{' | '}' | ';' | ']' | ')' | '"')
        }
        Some(crate::lexer::Token::Ident { text, .. }) => is_item_prefix_ident(text),
    }
}

/// Reads an outer attribute starting at `#`; returns its
/// whitespace-stripped content and the offset just past the closing `]`.
fn read_attribute(bytes: &[u8], hash: usize) -> Option<(String, usize)> {
    let n = bytes.len();
    let mut i = hash + 1;
    while i < n && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= n || bytes[i] != b'[' {
        return None;
    }
    let mut depth = 0usize;
    let mut content = String::new();
    while i < n {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some((content, i + 1));
                }
            }
            b if !b.is_ascii_whitespace() && depth > 0 => content.push(b as char),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Whether a (whitespace-stripped) attribute body gates test code.
fn is_test_attribute(attr: &str) -> bool {
    attr == "test"
        || attr == "cfg(test)"
        || attr.starts_with("cfg(all(test")
        || attr.starts_with("cfg(any(test")
}

/// Skips past the item following an attribute: further attributes, then
/// code up to either a `;` or a brace-balanced `{ ... }` block. Returns
/// the offset just past the item.
fn skip_item_after(bytes: &[u8], mut i: usize) -> usize {
    let n = bytes.len();
    loop {
        while i < n && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < n && bytes[i] == b'#' {
            match read_attribute(bytes, i) {
                Some((_, end)) => i = end,
                None => break,
            }
        } else {
            break;
        }
    }
    // Find the item's body opening or its semicolon terminator.
    while i < n && bytes[i] != b'{' && bytes[i] != b';' {
        i += 1;
    }
    if i >= n || bytes[i] == b';' {
        return (i + 1).min(n);
    }
    let mut depth = 0usize;
    while i < n {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask_source;

    fn flags(src: &str) -> Vec<bool> {
        test_line_flags(&mask_source(src).code)
    }

    #[test]
    fn cfg_test_module_is_flagged_to_closing_brace() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = flags(src);
        assert_eq!(f, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn test_fn_is_flagged() {
        let src = "#[test]\nfn t() {\n    x.unwrap();\n}\nfn u() {}\n";
        let f = flags(src);
        assert_eq!(&f[..5], &[true, true, true, true, false]);
    }

    #[test]
    fn intervening_attributes_are_included() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t {\n}\nfn f() {}\n";
        let f = flags(src);
        assert_eq!(&f[..5], &[true, true, true, true, false]);
    }

    #[test]
    fn out_of_line_test_module_declaration() {
        let src = "#[cfg(test)]\nmod tests;\nfn f() {}\n";
        let f = flags(src);
        assert_eq!(&f[..3], &[true, true, false]);
    }

    #[test]
    fn braces_in_masked_strings_do_not_confuse_matching() {
        let src = "#[cfg(test)]\nmod t {\n    let s = \"}\";\n    f();\n}\nfn g() {}\n";
        let f = flags(src);
        assert_eq!(&f[..6], &[true, true, true, true, true, false]);
    }

    #[test]
    fn non_test_attributes_are_ignored() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() {}\n";
        let f = flags(src);
        assert!(f.iter().all(|&x| !x));
    }

    fn paths(src: &str) -> Vec<Option<String>> {
        item_paths(&mask_source(src).code)
    }

    fn path_at(src: &str, line_1based: usize) -> Option<String> {
        paths(src)[line_1based - 1].clone()
    }

    #[test]
    fn free_function_lines_attribute_to_the_function() {
        let src = "fn alpha() {\n    work();\n}\n\nfn beta() {}\n";
        assert_eq!(path_at(src, 1).as_deref(), Some("alpha"));
        assert_eq!(path_at(src, 2).as_deref(), Some("alpha"));
        assert_eq!(path_at(src, 3).as_deref(), Some("alpha"));
        assert_eq!(path_at(src, 4), None);
        assert_eq!(path_at(src, 5).as_deref(), Some("beta"));
    }

    #[test]
    fn impl_methods_get_type_qualified_paths() {
        let src =
            "impl<'a> ScoringCache<'a> {\n    fn evaluate(&self) {\n        body();\n    }\n}\n";
        assert_eq!(path_at(src, 1).as_deref(), Some("ScoringCache"));
        assert_eq!(path_at(src, 3).as_deref(), Some("ScoringCache::evaluate"));
    }

    #[test]
    fn trait_impls_attribute_to_the_self_type() {
        let src = "impl fmt::Display for Grid {\n    fn fmt(&self) {\n        x();\n    }\n}\n";
        assert_eq!(path_at(src, 3).as_deref(), Some("Grid::fmt"));
    }

    #[test]
    fn modules_and_nested_items_stack() {
        let src = "mod outer {\n    struct S {\n        x: u32,\n    }\n    fn f() {\n        g();\n    }\n}\n";
        assert_eq!(path_at(src, 3).as_deref(), Some("outer::S"));
        assert_eq!(path_at(src, 6).as_deref(), Some("outer::f"));
    }

    #[test]
    fn return_position_impl_does_not_hijack_the_fn_name() {
        let src = "fn make() -> impl Iterator<Item = u8> {\n    source()\n}\n";
        assert_eq!(path_at(src, 2).as_deref(), Some("make"));
    }

    #[test]
    fn where_clause_and_multiline_signatures_attribute_to_the_fn() {
        let src = "fn long<T>(\n    x: T,\n) -> T\nwhere\n    T: Default,\n{\n    x\n}\n";
        for l in 1..=8 {
            assert_eq!(path_at(src, l).as_deref(), Some("long"), "line {l}");
        }
    }

    #[test]
    fn closures_and_match_arms_stay_in_the_enclosing_fn() {
        let src = "fn f() {\n    let c = |x| {\n        x + 1\n    };\n    match c(1) {\n        _ => {}\n    }\n}\n";
        for l in 1..=7 {
            assert_eq!(path_at(src, l).as_deref(), Some("f"), "line {l}");
        }
    }

    #[test]
    fn unclosed_scope_at_eof_still_attributes() {
        let src = "fn broken() {\n    dangling();\n";
        assert_eq!(path_at(src, 2).as_deref(), Some("broken"));
    }
}
