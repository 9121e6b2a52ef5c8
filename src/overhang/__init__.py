"""Deterministic scenario toolkit for large dormant-position disposition analysis.

Quantifies the mechanical price impact of patient liquidation under varying
elasticity and execution assumptions, builds participation-constrained
selldown schedules and optimal-execution frontiers, maps preference sets to
terminal dispositions, and simulates the cryptographic disposition
mechanisms (secret sharding, timelocks, dead-man's switch) on a simulated
clock.

Import each name from its module (``from overhang.shamir import split``).
The package holds only ``__version__`` and ``checked`` and imports nothing,
so importing one module loads no other module it does not need.
"""

__version__ = "0.1.0"


def checked(cls):
    """Make a NamedTuple record run its _check() wherever it is built: the
    constructor, _make and _replace. NamedTuple forbids __new__ and _make in
    the class body, so a decorator sets them. Like collections.namedtuple,
    it generates a __new__ that takes the record's own fields and defaults,
    so a construction runs one Python frame besides _check. A builder that
    makes named-tuple records in bulk uses starmap(tuple.__new__,
    zip(repeat(cls), rows)): the same records from C calls alone, with no
    __new__ frame and so no _check, for rows whose fields it has checked."""
    fields = ", ".join(cls._fields)
    namespace = {"__builtins__": {}, "__name__": cls.__module__, "_tuple_new": tuple.__new__}
    exec(f"def __new__(_cls, {fields}):\n    _self = _tuple_new(_cls, ({fields},))\n"
         "    _self._check()\n    return _self", namespace)
    new = namespace["__new__"]
    new.__defaults__ = cls.__new__.__defaults__
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    cls.__new__ = new
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace calls _make
    return cls
