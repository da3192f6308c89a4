"""A compiled accessor: a uniquely named closure over the raw path.

Mirrors a kernel plan's ``unpack_from``, which falls back to
``raw_load``. The closure is an implementation detail of its factory and
must not resolve from another module. Parsed, never imported.
"""


def compile_header_reader(space):
    raw_load = space.raw_load

    def unpack_plan_header(st, addr):
        return st.unpack(raw_load(addr, st.size))

    return unpack_plan_header
