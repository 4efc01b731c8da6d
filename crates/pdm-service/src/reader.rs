//! Typed reads of persisted documents.
//!
//! Every snapshot, WAL segment and tenant document is read back through a
//! [`Reader`]: a JSON value plus where it sits in its document.  The
//! accessors build every missing-key and wrong-type error, so a hostile
//! document comes back as one [`ServiceError::MalformedSnapshot`] naming
//! the path and the key.  The path is a chain of borrowed labels, formatted
//! only when an error is built, so a clean restore allocates no context.

use std::fmt;

use pdm_linalg::Json;

use crate::api::ServiceError;
use crate::routing::TenantId;

/// One step of a reader's path: a document or key name, a numbered item
/// (`shard 3`, `WAL segment 7`), or a tenant.
#[derive(Clone, Copy)]
pub(crate) enum Label {
    Name(&'static str),
    Numbered(&'static str, u64),
    Tenant(TenantId),
}

/// A JSON value read by key, with the path that error messages name.
pub(crate) struct Reader<'a, 'p> {
    value: &'a Json,
    label: Label,
    parent: Option<&'p Reader<'a, 'p>>,
}

impl fmt::Display for Reader<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(parent) = self.parent {
            write!(f, "{parent} ")?;
        }
        match self.label {
            Label::Name(name) => f.write_str(name),
            Label::Numbered(name, number) => write!(f, "{name} {number}"),
            Label::Tenant(id) => write!(f, "{id}"),
        }
    }
}

impl<'a, 'p> Reader<'a, 'p> {
    /// A reader at the root of a document.
    pub(crate) fn new(value: &'a Json, label: Label) -> Self {
        Self {
            value,
            label,
            parent: None,
        }
    }

    /// A reader over `value`, one step below this one.
    pub(crate) fn child<'s>(&'s self, value: &'a Json, label: Label) -> Reader<'a, 's> {
        Reader {
            value,
            label,
            parent: Some(self),
        }
    }

    /// A malformed-document error in this reader's context.
    pub(crate) fn error(&self, message: impl fmt::Display) -> ServiceError {
        ServiceError::MalformedSnapshot(format!("{self}: {message}"))
    }

    /// Whether `key` is present (as anything, `null` included).
    pub(crate) fn has(&self, key: &str) -> bool {
        self.value.get(key).is_some()
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

    /// `read` for a key that may be absent or `null`.
    pub(crate) fn optional<'s, T>(
        &'s self,
        key: &'static str,
        read: impl FnOnce(&'s Self, &'static str) -> Result<T, ServiceError>,
    ) -> Result<Option<T>, ServiceError> {
        match self.value.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => read(self, key).map(Some),
        }
    }

    /// A non-negative integer.
    pub(crate) fn count(&self, key: &str) -> Result<u64, ServiceError> {
        self.read(key, "count", Json::as_u64)
    }

    /// A non-negative integer that fits a `usize`.
    pub(crate) fn size(&self, key: &str) -> Result<usize, ServiceError> {
        self.read(key, "count", |raw| usize::try_from(raw.as_u64()?).ok())
    }

    /// A number; `null` reads back as NaN (non-finite numbers render so).
    pub(crate) fn number(&self, key: &str) -> Result<f64, ServiceError> {
        self.read(key, "number", Json::as_f64)
    }

    /// A boolean.
    pub(crate) fn flag(&self, key: &str) -> Result<bool, ServiceError> {
        self.read(key, "flag", |raw| match raw {
            Json::Bool(flag) => Some(*flag),
            _ => None,
        })
    }

    /// A string.
    pub(crate) fn string(&self, key: &str) -> Result<&'a str, ServiceError> {
        self.read(key, "string", Json::as_str)
    }

    /// An array, unparsed.
    pub(crate) fn array(&self, key: &str) -> Result<&'a [Json], ServiceError> {
        self.read(key, "array", Json::as_arr)
    }

    /// An object, as a reader one step below this one.
    pub(crate) fn object<'s>(&'s self, key: &'static str) -> Result<Reader<'a, 's>, ServiceError> {
        let value = self.read(key, "object", |raw| match raw {
            Json::Obj(_) => Some(raw),
            _ => None,
        })?;
        Ok(self.child(value, Label::Name(key)))
    }

    /// An array whose every entry `parse` accepts; `noun` names the entries.
    pub(crate) fn list<T>(
        &self,
        key: &str,
        noun: &str,
        parse: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<Vec<T>, ServiceError> {
        self.array(key)?
            .iter()
            .map(|item| {
                parse(item)
                    .ok_or_else(|| self.error(format_args!("`{key}` entries must be {noun}")))
            })
            .collect()
    }

    /// An array of numbers.
    pub(crate) fn numbers(&self, key: &str) -> Result<Vec<f64>, ServiceError> {
        self.list(key, "numbers", Json::as_f64)
    }

    /// An array of flags written as `0`/`1`.
    pub(crate) fn bits(&self, key: &str) -> Result<Vec<bool>, ServiceError> {
        self.list(key, "0 or 1", |raw| match raw.as_u64()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        })
    }
}
