"""The base of the program's record classes.

A subclass of `Record` declares its fields as annotated class attributes,
after those of its bases, each with a default, a `field` or neither.  Its
`__init__` takes them in order, the keyword-only ones last, then calls
`__post_init__()` if the class has one.  Records of one class are equal
when their compared fields are, and unhashable; with the class keyword
`frozen=True` they refuse assignment and hash on those fields, and with
`eq=False` they compare and hash by identity.
"""

_MISSING = object()


class field:
    """A field's default, or the `default_factory` that makes one for each
    record, and whether `==` compares it, the repr shows it and `__init__`
    takes it by keyword only."""

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, compare=True,
                 repr=True, kw_only=False):
        self.default, self.default_factory = default, default_factory
        self.compare, self.repr, self.kw_only = compare, repr, kw_only


class Record:
    _fields: tuple[field, ...] = ()

    def __init_subclass__(cls, *, eq: bool = True, frozen: bool = False):
        by_name = {f.name: f for f in cls._fields}
        for name in cls.__dict__.get("__annotations__", {}):
            value = cls.__dict__.get(name, _MISSING)
            f = by_name[name] = value if isinstance(value, field) else field(default=value)
            f.name = name
        cls._fields = tuple(by_name.values())
        if "__init__" not in cls.__dict__:
            cls.__init__ = _first_init(cls, frozen)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        else:
            cls.__hash__ = Record._hash if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse

    def _key(self) -> tuple:
        return tuple([getattr(self, f.name) for f in self._fields if f.compare])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def _hash(self):
        return hash(self._key())

    def _refuse(self, name, *value):
        raise AttributeError(f"{self.__class__.__qualname__} is frozen: cannot change {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._fields if f.repr)
        return f"{self.__class__.__qualname__}({shown})"


def _first_init(cls, frozen: bool):
    """An `__init__` that compiles the class's own and puts it in its place:
    a class never instantiated costs no compilation, and a generic one, a
    loop over the fields, takes five times as long per record."""
    def __init__(self, *args, **kwargs):
        namespace = {"_MISSING": _MISSING, "_setattr": object.__setattr__}
        params, kw_params, body = [], [], []
        for f in cls._fields:
            param = value = f.name
            if f.default_factory is not _MISSING:
                namespace[f"_factory_{f.name}"] = f.default_factory
                param += "=_MISSING"
                value = f"_factory_{f.name}() if {f.name} is _MISSING else {f.name}"
            elif f.default is not _MISSING:
                namespace[f"_default_{f.name}"] = f.default
                param += f"=_default_{f.name}"
            (kw_params if f.kw_only else params).append(param)
            body.append(f"_setattr(self, {f.name!r}, {value})" if frozen
                        else f"self.{f.name} = {value}")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        params += ["*", *kw_params] if kw_params else []
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]),
             namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__(self, *args, **kwargs)
    return __init__


def fields(record) -> tuple[str, ...]:
    """The field names of a record or record class, those of its bases first."""
    return tuple(f.name for f in record._fields)


def replace(record: Record, **changes) -> Record:
    """A copy of `record` made by its class's `__init__`, with `changes`."""
    return record.__class__(**{f: getattr(record, f) for f in fields(record)} | changes)
