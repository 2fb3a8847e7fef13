//! Hierarchical timed spans.
//!
//! A [`SpanGuard`] measures the wall time between its creation and drop
//! and emits a `span` event with its slash-joined ancestry path. Nesting
//! is tracked per thread with a thread-local name stack; a
//! [`par_map`](crate::par_map) worker starts from a copy of its caller's
//! stack, so its spans close under the caller's path. Guards are
//! scope-bound: create them with the [`span!`](crate::span) macro, bind to
//! a local (`let _span = span!(...)`), and let them drop in LIFO order.

use std::cell::RefCell;
use std::time::Instant;

use crate::sink::Event;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's open span names, outermost first.
pub(crate) fn stack() -> Vec<&'static str> {
    SPAN_STACK.with(|stack| stack.borrow().clone())
}

/// Replace the calling thread's span stack (a fresh worker adopting its
/// caller's ancestry).
pub(crate) fn set_stack(names: Vec<&'static str>) {
    SPAN_STACK.with(|stack| *stack.borrow_mut() = names);
}

struct ActiveSpan {
    path: String,
    depth: usize,
    start: Instant,
    attrs: Vec<(&'static str, String)>,
}

/// RAII guard for one timed span; see the module docs.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Open a span named `name` under the calling thread's current span.
    ///
    /// Prefer the [`span!`](crate::span) macro, which skips attribute
    /// construction entirely when telemetry is not installed.
    pub fn enter(name: &'static str, attrs: Vec<(&'static str, String)>) -> Self {
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            (stack.join("/"), stack.len())
        });
        SpanGuard {
            active: Some(ActiveSpan {
                path,
                depth,
                start: Instant::now(),
                attrs,
            }),
        }
    }

    /// A no-op guard used when telemetry is disabled.
    pub fn disabled() -> Self {
        SpanGuard { active: None }
    }

    /// Wall time elapsed so far (zero for disabled guards).
    pub fn elapsed(&self) -> std::time::Duration {
        self.active
            .as_ref()
            .map(|a| a.start.elapsed())
            .unwrap_or_default()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let wall_ns = crate::hist::saturating_ns(active.start.elapsed());
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        crate::emit(&Event::SpanClose {
            path: &active.path,
            depth: active.depth,
            wall_ns,
            attrs: &active.attrs,
        });
    }
}

/// Open a timed span: `span!("sweep")` or `span!("simulate", config_id)`.
///
/// Returns a [`SpanGuard`]; bind it to keep the span open. Attributes can
/// be bare identifiers (key is the identifier name) or `key = expr`
/// pairs; values are captured with `Display`. When telemetry is not
/// installed the attribute expressions are not evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter($name, ::std::vec::Vec::new())
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                ::std::vec![$((stringify!($key), ($val).to_string())),+],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($key:ident),+ $(,)?) => {
        $crate::span!($name, $($key = $key),+)
    };
}

/// Record an instantaneous observation: `point!("prune/accept", hidden = h)`.
///
/// Attribute syntax matches [`span!`](crate::span). Does nothing (and
/// evaluates nothing) when telemetry is not installed.
#[macro_export]
macro_rules! point {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::emit_point($name, &[]);
        }
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::emit_point(
                $name,
                &[$((stringify!($key), ($val).to_string())),+],
            );
        }
    };
    ($name:expr, $($key:ident),+ $(,)?) => {
        $crate::point!($name, $($key = $key),+)
    };
}
