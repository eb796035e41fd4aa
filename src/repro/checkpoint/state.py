"""Declared object state, and the one walker that saves and restores it.

Every stateful class declares its state once:

* a dataclass by its fields;
* any other class by a ``__state__`` tuple of attribute names and a
  ``__transient__`` tuple of the attributes deliberately left out —
  settings and back-references fixed at construction, memo caches,
  scratch buffers. Subclasses add to their bases' tuples;
* a buffer-backed class (``MetricsRecorder``, ``LatencyReservoir``,
  ``PageTable``) by a two-method hook: ``__snapshot__()`` returns its
  state as a JSON list and ``__restore__(state)`` loads it back.

The class annotations give each declared attribute its type, and the
walker encodes by type: JSON scalars as themselves; enums by value;
lists, tuples and sets (sorted) as lists; every dict as ordered
``[key, value]`` pairs; float64, integer and bool ndarrays as packed
bytes (:func:`encode_array`); NumPy generators by their bit-generator
state; declared objects as a positional row in declaration order. An
attribute annotated ``Any``, or not at all, must already hold JSON (a
scalar, or a document such as a persisted controller).

Objects are written once. A class with a ``__key__`` attribute name is
*shared*: after its first occurrence it is written as its key (a page
id, a cgroup or PSI group name), and a dict holding such objects under
their own keys is written as the list of its values. Any other object
met a second time is written as its ordinal among the objects already
written. An object whose class is not exactly the annotated one is
tagged ``{"module:Class": row}``. Declaration order is therefore
encoding order: owners come before borrowers.

Coverage holds by construction: encoding an instance attribute that is
neither declared state nor transient raises :class:`SnapshotError`
naming ``Class.attr``, as does a class that declares nothing.

Restoring walks the same rows. A nested object is restored in place
when the target already holds a mutable object of the same class (the
construction-time objects of a host rebuilt from its config), and is
otherwise created without calling ``__init__`` — so the transient
attributes of such classes need class-level defaults.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import enum
import functools
import gc
import importlib
import operator
import typing
from collections import OrderedDict, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.checkpoint.snapshot import SnapshotError
from repro.sim.rng import derive_rng

_SCALARS = frozenset({type(None), bool, int, float, str})
_MISSING = object()

Encoder = Callable[[Any, "_Encoding"], Any]
Decoder = Callable[[Any, "_Decoding", Any], Any]


class _Encoding:
    """Objects already written during one encode."""

    def __init__(self) -> None:
        self.ordinals: Dict[int, int] = {}
        self.keyed: Dict[type, Dict[Any, Any]] = defaultdict(dict)


class _Decoding:
    """Objects already rebuilt during one decode."""

    def __init__(self) -> None:
        self.objects: List[Any] = []
        self.keyed: Dict[type, Dict[Any, Any]] = defaultdict(dict)


# ----------------------------------------------------------------------
# per-class plans


class _Plan:
    """How one class is encoded: its declared names and their codecs."""

    def __init__(self, cls: type) -> None:
        self.name = cls.__qualname__
        self.tag = f"{cls.__module__}:{cls.__qualname__}"
        self.key: Optional[str] = getattr(cls, "__key__", None)
        self.hook = hasattr(cls, "__snapshot__")
        self.frozen = False
        self.names: Tuple[str, ...] = ()
        #: (position, codec) of the attributes whose JSON form is not
        #: the value itself; the rest are scalars and pass through.
        self.encoders: Tuple[Tuple[int, Encoder], ...] = ()
        self.decoders: Tuple[Tuple[int, Decoder], ...] = ()
        self.allowed: frozenset = frozenset()
        if self.hook:
            return
        if dataclasses.is_dataclass(cls):
            names = tuple(f.name for f in dataclasses.fields(cls))
            self.frozen = cls.__dataclass_params__.frozen
        elif hasattr(cls, "__state__"):
            names = _gather(cls, "__state__")
        else:
            raise SnapshotError(
                f"{self.name} declares no snapshot state: make it a "
                "dataclass or give it __state__ and __transient__ tuples"
            )
        transient = _gather(cls, "__transient__")
        both = set(names) & set(transient)
        if both or len(set(names)) != len(names):
            raise SnapshotError(
                f"{self.name} declares {sorted(both) or list(names)} "
                "twice; each attribute is either state or transient"
            )
        self.names = names
        self.transient = transient
        self.allowed = frozenset(names) | frozenset(transient)
        self.has_dict = cls.__dictoffset__ != 0
        for klass in cls.__mro__:
            for slot in klass.__dict__.get("__slots__", ()):
                if slot not in self.allowed:
                    _undeclared(self.name, slot)
        try:
            hints = typing.get_type_hints(cls)
        except Exception as exc:
            raise SnapshotError(
                f"cannot resolve the annotations of {self.name}: {exc}"
            ) from exc
        codecs = [_codec(hints.get(n, Any)) for n in names]
        self.encoders = tuple(
            (i, enc) for i, (enc, _) in enumerate(codecs) if enc is not _same
        )
        self.decoders = tuple(
            (i, dec) for i, (_, dec) in enumerate(codecs) if dec is not _same
        )
        if self.key is not None:
            if self.key not in names:
                raise SnapshotError(
                    f"{self.name}.__key__ {self.key!r} is not declared "
                    "state"
                )
            self.key_index = names.index(self.key)
        getter = operator.attrgetter(*names) if names else None
        self.get = (
            getter if len(names) > 1 else lambda obj: (getter(obj),)
        )

    def encode(self, obj: Any, ctx: _Encoding) -> Any:
        if self.hook:
            return obj.__snapshot__()
        if self.has_dict:
            self._check_attributes(obj)
        if not self.names:
            return []
        try:
            row = list(self.get(obj))
            for i, enc in self.encoders:
                value = row[i]
                # A JSON scalar encodes as itself under every annotation.
                if type(value) not in _SCALARS:
                    row[i] = enc(value, ctx)
            return row
        except SnapshotError:
            raise
        except Exception as exc:
            self._explain(obj, ctx, exc)

    def _check_attributes(self, obj: Any) -> None:
        """Refuse instance attributes the class does not declare.

        Counts the instance's attribute values through the garbage
        collector rather than reading ``obj.__dict__``: on CPython 3.11
        asking an object for its ``__dict__`` turns its inline attribute
        storage into a dict for good, after which every attribute access
        on it is several times slower, and a snapshot must not slow the
        host it was taken from. Only a count that does not add up reads
        the dict, to name the attribute.
        """
        # The attribute values (or an already-made instance dict), then
        # the class.
        found = gc.get_referents(obj)
        first = self.names[0] if self.names else None
        if (
            len(found) == 2 and type(found[0]) is dict
            and found[0].get(first, _MISSING) is getattr(obj, first, None)
        ):
            attrs = found[0]
        else:
            count = len(self.names) + 1
            if self.transient:
                cls = type(obj)
                count += sum(
                    getattr(obj, t, _MISSING) is not getattr(cls, t, _MISSING)
                    for t in self.transient
                )
            if len(found) == count:
                return
            attrs = obj.__dict__
        if not attrs.keys() <= self.allowed:
            _undeclared(self.name, sorted(attrs.keys() - self.allowed)[0])

    def _explain(self, obj: Any, ctx: _Encoding, exc: Exception) -> None:
        """Re-raise an encoding failure naming the attribute at fault."""
        for i, enc in self.encoders:
            name = self.names[i]
            try:
                enc(getattr(obj, name), ctx)
            except SnapshotError:
                raise
            except Exception as inner:
                raise SnapshotError(
                    f"cannot snapshot {self.name}.{name}: {inner}"
                ) from inner
        raise SnapshotError(f"cannot snapshot {self.name}: {exc}") from exc

    def restore(self, obj: Any, row: Any, ctx: _Decoding,
                fresh: bool) -> None:
        if self.hook:
            obj.__restore__(row)
            return
        if not isinstance(row, list) or len(row) != len(self.names):
            raise SnapshotError(
                f"{self.name} expects {len(self.names)} fields, "
                f"got {row!r:.80}"
            )
        values = list(row)
        for i, dec in self.decoders:
            template = (
                _MISSING if fresh else getattr(obj, self.names[i], _MISSING)
            )
            values[i] = dec(row[i], ctx, template)
        # Attribute by attribute, never through obj.__dict__ (see
        # _check_attributes).
        for name, value in zip(self.names, values):
            object.__setattr__(obj, name, value)


def _gather(cls: type, attr: str) -> Tuple[str, ...]:
    names: Tuple[str, ...] = ()
    for klass in reversed(cls.__mro__):
        names += tuple(klass.__dict__.get(attr, ()))
    return names


def _undeclared(cls_name: str, attr: str) -> None:
    raise SnapshotError(
        f"{cls_name}.{attr} is neither declared state nor transient; "
        "add it to the class's __state__ or __transient__"
    )


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> _Plan:
    return _Plan(cls)


def _resolve(tag: str) -> type:
    """The declared class a ``module:Qualname`` tag names."""
    module, _, qualname = tag.partition(":")
    try:
        found: Any = importlib.import_module(module)
        for part in qualname.split("."):
            found = getattr(found, part)
    except (ImportError, AttributeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot names unknown class {tag!r}"
        ) from exc
    if not isinstance(found, type):
        raise SnapshotError(f"snapshot tag {tag!r} is not a class")
    _plan(found)
    return found


# ----------------------------------------------------------------------
# codecs by annotation


def _same(value: Any, ctx: Any, template: Any = None) -> Any:
    """Scalars annotated as such: the JSON value is the value."""
    return value


def _any(value: Any, ctx: _Encoding) -> Any:
    if type(value) in _SCALARS or isinstance(value, (list, dict)):
        return value  # a scalar, or an already-encoded JSON document
    raise TypeError(
        f"{type(value).__name__} is not JSON; annotate the attribute "
        "with its type"
    )


def _enum_codec(cls: type) -> Tuple[Encoder, Decoder]:
    members = cls._value2member_map_

    def dec(doc, ctx, template):
        member = members.get(doc)
        return member if member is not None else cls(doc)

    return (lambda value, ctx: value._value_), dec


def _optional_codec(inner: Tuple[Encoder, Decoder]):
    enc, dec = inner
    if enc is _same and dec is _same:
        return inner
    return (
        lambda value, ctx: None if value is None else enc(value, ctx),
        lambda doc, ctx, t: None if doc is None else dec(doc, ctx, t),
    )


#: Integer widths an int column is narrowed to in a snapshot, narrowest
#: first.
_INT_WIDTHS = tuple(np.dtype(t) for t in ("<i1", "<i2", "<i4", "<i8"))

#: Base64 of a contiguous buffer, as ASCII bytes with no newline.
_base64 = functools.partial(binascii.b2a_base64, newline=False)


def encode_array(value: np.ndarray) -> Any:
    """A 1-d float64, integer or bool array as JSON, its data ``bytes``.

    Floats are their little-endian IEEE bytes, so every bit survives
    (NaN payloads, ``-0.0``, subnormals). Integers are the little-endian
    bytes of the narrowest width that holds them. Bools are bits, packed
    eight to a byte. All three are base64-encoded, straight from the
    array's buffer, as ASCII ``bytes``: the serializer writes those
    verbatim (:func:`repro.checkpoint.snapshot.canonical_parts`), and a
    parsed document holds the same text as ``str``.
    """
    if value.dtype == np.float64:
        data = np.ascontiguousarray(value, dtype="<f8")
        return {"float": "<f8", "data": _base64(data)}
    if value.dtype == np.bool_:
        return {"bool": len(value), "bits": _base64(np.packbits(value))}
    if value.dtype.kind != "i":
        raise TypeError(
            f"only float64, integer and bool arrays encode, got {value.dtype}"
        )
    lo, hi = (int(value.min()), int(value.max())) if len(value) else (0, 0)
    width = next(
        w for w in _INT_WIDTHS
        if np.iinfo(w).min <= lo and hi <= np.iinfo(w).max
    )
    return {"int": value.dtype.str, "as": width.str,
            "data": _base64(value.astype(width))}


def decode_array(doc: Any) -> np.ndarray:
    """Rebuild (a writable copy of) an array :func:`encode_array` wrote."""
    if not isinstance(doc, dict):
        raise SnapshotError(f"malformed array {doc!r:.80}")
    try:
        if "bool" in doc:
            bits = np.frombuffer(base64.b64decode(doc["bits"]), np.uint8)
            return np.unpackbits(bits, count=doc["bool"]).astype(np.bool_)
        if "float" in doc:
            raw = np.frombuffer(base64.b64decode(doc["data"]), doc["float"])
            return raw.astype(np.float64)
        raw = np.frombuffer(base64.b64decode(doc["data"]), doc["as"])
        return raw.astype(doc["int"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed array {doc!r:.80}: {exc}") from exc


def _array_enc(value: np.ndarray, ctx: _Encoding) -> Any:
    return encode_array(value)


def _array_dec(doc, ctx, template) -> np.ndarray:
    return decode_array(doc)


def _generator_enc(value: np.random.Generator, ctx: _Encoding) -> dict:
    return value.bit_generator.state


def _generator_dec(doc, ctx, template) -> np.random.Generator:
    if not isinstance(template, np.random.Generator):
        # Any generator will do: the saved state replaces its position.
        template = derive_rng(0, "checkpoint:restore")
    template.bit_generator.state = doc
    return template


def _sequence_codec(inner, build: Callable) -> Tuple[Encoder, Decoder]:
    enc, dec = inner
    return (
        lambda value, ctx: [enc(x, ctx) for x in value],
        lambda doc, ctx, t: build([dec(x, ctx, _MISSING) for x in doc]),
    )


def _set_codec(inner) -> Tuple[Encoder, Decoder]:
    enc, dec = inner
    return (
        lambda value, ctx: sorted(enc(x, ctx) for x in value),
        lambda doc, ctx, t: {dec(x, ctx, _MISSING) for x in doc},
    )


def _tuple_codec(items) -> Tuple[Encoder, Decoder]:
    def enc(value, ctx):
        return [e(x, ctx) for (e, _), x in zip(items, value)]

    def dec(doc, ctx, template):
        return tuple(d(x, ctx, _MISSING) for (_, d), x in zip(items, doc))

    return enc, dec


def _dict_codec(build: type, key_type: Any, value_type: Any):
    enc_v, dec_v = _codec(value_type)
    key_attr = getattr(value_type, "__key__", None)
    if key_attr is not None:
        # Shared objects under their own keys: the keys are in the rows.
        def enc_keyed(value, ctx):
            written = ctx.keyed[value_type]
            out = []
            for k, obj in value.items():
                if written.get(k) is obj:
                    out.append(k)
                    continue
                if getattr(obj, key_attr) != k:
                    raise ValueError(
                        f"{type(obj).__qualname__} {getattr(obj, key_attr)!r}"
                        f" is stored under the key {k!r}"
                    )
                out.append(enc_v(obj, ctx))
            return out

        def dec_keyed(doc, ctx, template):
            out = build()
            for item in doc:
                obj = dec_v(item, ctx, _MISSING)
                out[getattr(obj, key_attr)] = obj
            return out

        return enc_keyed, dec_keyed
    enc_k, dec_k = _codec(key_type)

    def enc(value, ctx):
        return [[enc_k(k, ctx), enc_v(v, ctx)] for k, v in value.items()]

    def dec(doc, ctx, template):
        out = build()
        for k_doc, v_doc in doc:
            out[dec_k(k_doc, ctx, _MISSING)] = dec_v(v_doc, ctx, _MISSING)
        return out

    return enc, dec


def _object_codec(hint: type) -> Tuple[Encoder, Decoder]:
    hint_key = getattr(hint, "__key__", None)

    def enc(value, ctx):
        cls = type(value)
        if cls is hint and hint_key is not None:
            # Fast path for the bulk of a snapshot: page references.
            key = getattr(value, hint_key)
            written = ctx.keyed.get(cls)
            if written is not None and written.get(key) is value:
                return key
        plan = _plan(cls)
        if plan.key is not None:
            key = getattr(value, plan.key)
            table = ctx.keyed[cls]
            seen = table.get(key)
            if seen is None:
                table[key] = value
                doc = plan.encode(value, ctx)
            elif seen is value:
                doc = key
            else:
                raise SnapshotError(
                    f"two {plan.name} objects share the key {key!r}"
                )
        else:
            ordinal = ctx.ordinals.get(id(value))
            if ordinal is None:
                ctx.ordinals[id(value)] = len(ctx.ordinals)
                doc = plan.encode(value, ctx)
            else:
                doc = ordinal
        return doc if cls is hint else {plan.tag: doc}

    def dec(doc, ctx, template):
        cls = hint
        if hint_key is not None and type(doc) is not list:
            try:
                return ctx.keyed[cls][doc]
            except (KeyError, TypeError):
                pass  # tagged, or dangling: the general path decides
        if type(doc) is dict:
            if len(doc) != 1:
                raise SnapshotError(f"malformed class tag {doc!r:.80}")
            ((tag, doc),) = doc.items()
            cls = _resolve(tag)
        plan = _plan(cls)
        if type(doc) is not list:
            try:
                if plan.key is not None:
                    return ctx.keyed[cls][doc]
                return ctx.objects[doc]
            except (KeyError, IndexError, TypeError):
                raise SnapshotError(
                    f"dangling {plan.name} reference {doc!r}"
                ) from None
        fresh = type(template) is not cls or plan.frozen
        obj = cls.__new__(cls) if fresh else template
        if plan.key is None:
            ctx.objects.append(obj)
        else:
            ctx.keyed[cls][doc[plan.key_index]] = obj
        plan.restore(obj, doc, ctx, fresh)
        return obj

    return enc, dec


@functools.lru_cache(maxsize=None)
def _codec(hint: Any) -> Tuple[Encoder, Decoder]:
    if hint is Any:
        return _any, _same
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:
        rest = [a for a in args if a is not type(None)]
        if len(rest) != 1 or len(args) != 2:
            raise SnapshotError(f"cannot encode the union {hint}")
        return _optional_codec(_codec(rest[0]))
    if origin is list:
        return _sequence_codec(_codec(args[0]), list)
    if origin is set:
        return _set_codec(_codec(args[0]))
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return _sequence_codec(_codec(args[0]), tuple)
        return _tuple_codec([_codec(a) for a in args])
    if origin in (dict, OrderedDict):
        return _dict_codec(origin, args[0], args[1])
    if origin is not None or hint in (list, tuple, dict, set):
        raise SnapshotError(f"annotate {hint} with its element types")
    if hint in _SCALARS:
        return _same, _same
    if hint is np.ndarray:
        return _array_enc, _array_dec
    if hint is np.random.Generator:
        return _generator_enc, _generator_dec
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _enum_codec(hint)
    if isinstance(hint, type):
        return _object_codec(hint)
    raise SnapshotError(f"cannot encode values annotated {hint!r}")


# ----------------------------------------------------------------------
# entry points


def encode_state(value: Any, hint: Any = object) -> Any:
    """Encode ``value`` and everything it declares as JSON.

    With the default ``hint`` the result is tagged with the value's
    class, so :func:`decode_state` can rebuild it on its own.
    """
    return _codec(hint)[0](value, _Encoding())


def decode_state(doc: Any, hint: Any = object, into: Any = None) -> Any:
    """Rebuild what :func:`encode_state` wrote (with the same ``hint``).

    ``into``, when given, is restored in place (with the
    construction-time objects it holds) instead of a new object.
    """
    template = _MISSING if into is None else into
    return _codec(hint)[1](doc, _Decoding(), template)


def declared_state(cls: type) -> Tuple[str, ...]:
    """The declared state attributes of ``cls``, in encoding order.

    Empty for a class with a ``__snapshot__`` hook, which owns its
    whole encoding.
    """
    return _plan(cls).names
