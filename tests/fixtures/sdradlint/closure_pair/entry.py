"""A sandbox entry decoding a header through a ``struct.Struct`` method.

``HEADER.unpack_plan_header(data)`` shares its bare name with a closure
in ``plan_closure.py``; the call must not resolve to that closure, so
the entry reaches no raw boundary crossing. Parsed, never imported.
"""


@sandboxed(fallback="degraded")  # noqa: F821
def decode_entry(data):
    fields = HEADER.unpack_plan_header(data)  # noqa: F821
    return fields[0]
