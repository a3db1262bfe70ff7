//! # htmlsim — a small HTML document model with Selenium-style locators
//!
//! The paper's data-collection stage drives Selenium against top.gg and bot
//! websites, finding elements by *locators* and coping with
//! `NoSuchElementException` when pages change shape. This crate provides the
//! same vocabulary for the simulation:
//!
//! * [`node`] — an element tree ([`Node`], [`Document`]) with attributes,
//!   classes, and text content;
//! * [`build`] — an ergonomic builder the simulated sites use to emit pages;
//! * [`render`] — serialization to HTML text (what actually travels over the
//!   `netsim` fabric);
//! * [`parse`] — a tolerant parser for the subset we emit (plus enough slack
//!   to survive the "varying page structures" the paper complains about);
//! * [`locate`] — element locators: by id, class name, tag name, attribute,
//!   link text, and a CSS-lite selector language with descendant combinators.
//!
//! The crawler never touches a site's internal state: it sees rendered HTML
//! bytes, parses them, and extracts attributes with locators — the same
//! arms-length relationship the real scraper had.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atom;
pub mod build;
#[cfg(test)]
mod equivalence;
pub mod locate;
pub mod node;
pub mod parse;
pub mod render;

pub use atom::{Atom, AtomInterner};
pub use build::el;
pub use locate::{LocateError, Locator};
pub use node::{Document, Node};
pub use parse::{parse_document, ParseError};
