//! The engine's error type.
//!
//! [`CsagError`] is defined in `csag-core` (the lowest crate whose run
//! APIs return it) and re-exported here so `csag::engine` is a complete,
//! self-contained surface: every fallible engine call returns
//! `Result<_, CsagError>`.
//!
//! The variants separate what `Option`-based APIs used to conflate:
//!
//! | Variant | Meaning | Typical reaction |
//! |---|---|---|
//! | [`CsagError::InvalidParams`] | the query could never run | fix the builder call |
//! | [`CsagError::QueryNodeNotFound`] | the node id is out of range | fix the id |
//! | [`CsagError::NoCommunity`] | a definitive, correct "no" | report the empty answer |
//! | [`CsagError::BudgetExhausted`] | E-VAC refused a root above its size limit | raise the limit or pick another method |
//! | [`CsagError::Overloaded`] | the service shed the request before it ran | back off for `retry_after`, then resubmit |
//! | [`CsagError::EpochUnavailable`] | a pinned epoch nobody has published | retry once writes land, or drop the pin |
//! | [`CsagError::DurabilityUnavailable`] | the WAL rejected an append; the store is read-only | keep reading; retry writes after the disk recovers |

pub use csag_core::error::CsagError;
