//! Helpers shared by the integration tests that declare `mod support;`.

pub mod scan;
