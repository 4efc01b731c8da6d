//! Typed reads of persisted documents.
//!
//! Every snapshot, WAL segment and tenant document is read back through a
//! [`Reader`]: a JSON object plus where it sits in its document.  Its
//! accessors build every missing-key and wrong-type error, so a hostile
//! document comes back as one [`ServiceError::MalformedSnapshot`] naming
//! the path and the key.  A reader is also the JSON reading direction of
//! the field walks (see [`crate::page`]): entering an object pushes its key
//! onto the path, and leaving pops it.  The path is a short stack of
//! borrowed labels, formatted only when an error is built.

use std::fmt;

use pdm_linalg::Json;

use crate::api::ServiceError;
use crate::page::{Io, Leaf};
use crate::routing::TenantId;

/// One step of a reader's path: a document or key name, a numbered item
/// (`shard 3`, `WAL segment 7`), or a tenant.
#[derive(Clone, Copy)]
pub(crate) enum Label {
    Name(&'static str),
    Numbered(&'static str, u64),
    Tenant(TenantId),
}

/// A JSON object read by key, with the path that error messages name.
#[derive(Clone)]
pub(crate) struct Reader<'a> {
    value: &'a Json,
    path: Vec<Label>,
}

impl fmt::Display for Reader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (at, label) in self.path.iter().enumerate() {
            if at > 0 {
                f.write_str(" ")?;
            }
            match label {
                Label::Name(name) => f.write_str(name)?,
                Label::Numbered(name, number) => write!(f, "{name} {number}")?,
                Label::Tenant(id) => write!(f, "{id}")?,
            }
        }
        Ok(())
    }
}

impl<'a> Reader<'a> {
    /// A reader at the root of a document.
    pub(crate) fn new(value: &'a Json, label: Label) -> Self {
        Self {
            value,
            path: vec![label],
        }
    }

    /// A reader over `value`, one step below this one.
    pub(crate) fn child(&self, value: &'a Json, label: Label) -> Self {
        let mut path = self.path.clone();
        path.push(label);
        Self { value, path }
    }

    /// A malformed-document error in this reader's context.
    pub(crate) fn error(&self, message: impl fmt::Display) -> ServiceError {
        ServiceError::MalformedSnapshot(format!("{self}: {message}"))
    }

    /// The value at `key` through `parse`; `noun` names what it must be.
    pub(crate) fn read<T>(
        &self,
        key: &str,
        noun: &str,
        parse: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, ServiceError> {
        let Some(raw) = self.value.get(key) else {
            return Err(self.error(format_args!("missing {noun} `{key}`")));
        };
        let article = if noun.starts_with(['a', 'e', 'i', 'o', 'u']) {
            "an"
        } else {
            "a"
        };
        parse(raw).ok_or_else(|| self.error(format_args!("`{key}` must be {article} {noun}")))
    }

    /// A non-negative integer.
    pub(crate) fn count(&self, key: &str) -> Result<u64, ServiceError> {
        self.read(key, u64::NOUN, Json::as_u64)
    }

    /// A string.
    pub(crate) fn string(&self, key: &str) -> Result<&'a str, ServiceError> {
        self.read(key, "string", Json::as_str)
    }

    /// An array, unparsed.
    pub(crate) fn array(&self, key: &str) -> Result<&'a [Json], ServiceError> {
        self.read(key, "array", Json::as_arr)
    }
}

/// Reads a document through a walk.
impl Io for Reader<'_> {
    type Error = ServiceError;

    fn leaf<T: Leaf>(&mut self, key: &'static str, value: &mut T) -> Result<(), ServiceError> {
        *value = match T::absent() {
            Some(absent) if !self.has(key) => absent,
            _ => self.read(key, T::NOUN, T::from_json)?,
        };
        Ok(())
    }

    fn tag(
        &mut self,
        key: &'static str,
        noun: &str,
        tag: &mut usize,
        names: &[&'static str],
    ) -> Result<(), ServiceError> {
        let name = self.string(key)?;
        *tag = names
            .iter()
            .position(|&known| known == name)
            .ok_or_else(|| self.error(format_args!("unknown {noun} `{name}`")))?;
        Ok(())
    }

    /// An optional object that is absent or `null` skips `body`.
    fn object(
        &mut self,
        key: &'static str,
        required: bool,
        body: impl FnOnce(&mut Self) -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError> {
        if !required && matches!(self.value.get(key), None | Some(Json::Null)) {
            return Ok(());
        }
        let object = self.read(key, "object", |raw| match raw {
            Json::Obj(_) => Some(raw),
            _ => None,
        })?;
        let outer = std::mem::replace(&mut self.value, object);
        self.path.push(Label::Name(key));
        let read = body(self);
        self.path.pop();
        self.value = outer;
        read
    }

    /// Whether `key` is present, as anything, `null` included.
    fn has(&self, key: &str) -> bool {
        self.value.get(key).is_some()
    }
}
