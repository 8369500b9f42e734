"""Record classes: the methods a class of plain fields needs, written as code for that class.

`record` reads a class's own annotated attributes, in order, as its fields,
as `dataclasses.dataclass` does, and gives the class

- `__init__` taking every field in order, with the defaults and default
  factories `field` sets (a plain class attribute is a default too);
- `__eq__` over the compared fields, between instances of the same class;
- `__repr__` as `Name(field=value, ...)` over the shown fields;
- when `frozen`: `__hash__` over the compared fields, computed on first use
  and kept in the instance's `_hash`, and a `__setattr__` and
  `__delattr__` that raise `AttributeError`; otherwise `__hash__ = None`;
- when `slots`: `__slots__` holding the fields (and `_hash`), by making the
  class anew.

Each generated method is compiled from source text that names the fields
directly, so building a node costs one plain call.  Classes whose methods
read the same fields share one compilation, and each method still gets a
code object of its own.  Equality and hashing go through tuples of the
fields, as `dataclasses` does, so they compare and hash as its methods did.
"""

_MISSING = object()  # a field without a default
_FACTORY = object()  # the default in `__init__` of a field whose default comes from a factory

_set = object.__setattr__  # how a frozen record's `__init__` and `__hash__` write
_CODE = {}  # method source -> its compiled code


class Field:
    __slots__ = ("name", "type", "default", "default_factory", "compare", "repr")

    def __init__(self, default, default_factory, compare, repr):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default=_MISSING, default_factory=_MISSING, compare=True, repr=True) -> Field:
    """A field's default or default factory, and whether equality and hashing
    (`compare`) and `repr` read it."""
    return Field(default, default_factory, compare, repr)


def fields(cls) -> tuple:
    """The `Field`s of a record class, in order."""
    return cls.__record_fields__


def _frozen_setattr(self, name, value):
    raise AttributeError("cannot assign to field %r" % name)


def _frozen_delattr(self, name):
    raise AttributeError("cannot delete field %r" % name)


def _tuple(obj, names):
    return "(%s)" % "".join("%s.%s," % (obj, n) for n in names)


def _init_source(flds, frozen):
    lines = []
    for f in flds:
        value = f.name
        if f.default_factory is not _MISSING:
            value = "_factory_%s() if %s is _FACTORY else %s" % (f.name, f.name, f.name)
        if frozen:
            lines.append("    _set(self, %r, %s)" % (f.name, value))
        else:
            lines.append("    self.%s = %s" % (f.name, value))
    params = "".join(", " + f.name for f in flds)
    return "def __init__(self%s):\n%s\n" % (params, "\n".join(lines) or "    pass")


def _eq_source(names):
    return ("def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            "        return %s == %s\n"
            "    return NotImplemented\n" % (_tuple("self", names), _tuple("other", names)))


def _hash_source(names):
    return ("def __hash__(self):\n"
            "    try:\n"
            "        return self._hash\n"
            "    except AttributeError:\n"
            "        h = hash(%s)\n"
            "        _set(self, '_hash', h)\n"
            "        return h\n" % _tuple("self", names))


def _repr_source(names):
    shown = ", ".join("%s={self.%s!r}" % (n, n) for n in names)
    return ("def __repr__(self):\n"
            "    return self.__class__.__qualname__ + f\"(%s)\"\n" % shown)


def _method(cls, name, source, namespace):
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<record>", "exec")
    exec(code, namespace)
    fn = namespace[name]
    # a code object of its own: the interpreter specialises attribute access
    # in place per code object, so classes sharing one would keep undoing
    # each other's specialisation; profiles also tell the classes apart by it
    fn.__code__ = fn.__code__.replace(co_filename="<record %s>" % cls.__qualname__)
    fn.__qualname__ = "%s.%s" % (cls.__qualname__, name)
    return fn


def _fields_of(cls):
    flds = []
    for name, ty in cls.__dict__.get("__annotations__", {}).items():
        spec = cls.__dict__.get(name, _MISSING)
        f = spec if isinstance(spec, Field) else Field(spec, _MISSING, True, True)
        f.name, f.type = name, ty
        if flds and f.default is _MISSING and f.default_factory is _MISSING and (
                flds[-1].default is not _MISSING or flds[-1].default_factory is not _MISSING):
            raise TypeError("%s: field %r without a default follows one with a default"
                            % (cls.__qualname__, name))
        flds.append(f)
    return tuple(flds)


def _make(cls, frozen, slots):
    flds = _fields_of(cls)
    compared = [f.name for f in flds if f.compare]
    namespace = {"_set": _set, "_FACTORY": _FACTORY}
    methods = {}
    for f in flds:
        if f.default_factory is not _MISSING:
            namespace["_factory_" + f.name] = f.default_factory
    init = methods["__init__"] = _method(cls, "__init__", _init_source(flds, frozen), namespace)
    init.__defaults__ = tuple(
        _FACTORY if f.default_factory is not _MISSING else f.default
        for f in flds if f.default is not _MISSING or f.default_factory is not _MISSING) or None
    methods["__eq__"] = _method(cls, "__eq__", _eq_source(compared), namespace)
    methods["__repr__"] = _method(
        cls, "__repr__", _repr_source([f.name for f in flds if f.repr]), namespace)
    if frozen:
        methods["__hash__"] = _method(cls, "__hash__", _hash_source(compared), namespace)
        methods["__setattr__"] = _frozen_setattr
        methods["__delattr__"] = _frozen_delattr
    else:
        methods["__hash__"] = None
    if slots:
        body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
        for f in flds:  # a slot and a class attribute cannot share a name
            body.pop(f.name, None)
        body["__slots__"] = tuple(f.name for f in flds) + (("_hash",) if frozen else ())
        body["__qualname__"] = cls.__qualname__
        body.update(methods)
        cls = type(cls)(cls.__name__, cls.__bases__, body)
    else:
        for f in flds:  # as `dataclasses`: the class attribute is the default, if any
            if isinstance(cls.__dict__.get(f.name), Field):
                if f.default is _MISSING:
                    delattr(cls, f.name)
                else:
                    setattr(cls, f.name, f.default)
        for k, v in methods.items():
            setattr(cls, k, v)
    cls.__record_fields__ = flds
    return cls


def record(cls=None, /, *, frozen=False, slots=False):
    """Class decorator, `@record` or `@record(frozen=True, slots=True)`: see the module."""
    if cls is None:
        return lambda c: _make(c, frozen, slots)
    return _make(cls, frozen, slots)
