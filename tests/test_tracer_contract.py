"""The benchmark's tracer finds what it wraps and reads.

e2ebench/tracer.py names the functions it times by module and attribute,
and reads fixed positions of the kernels' return tuples.  A rename or a
changed return would otherwise surface only in a traced benchmark run.  The
tracer imports only the standard library, so it is loaded here from its
file, without writing anything next to it.
"""

import importlib
import inspect
import os
import types

import numpy as np

import ergoloc
from ergoloc import kernels, qmat
from helpers import cost_from_m, random_system

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "e2ebench", "tracer.py")
PACKAGE_DIR = os.path.dirname(os.path.abspath(ergoloc.__file__))


def _load_tracer():
    with open(TRACER) as fh:
        source = fh.read()
    mod = types.ModuleType("e2ebench_tracer")
    exec(compile(source, TRACER, "exec"), mod.__dict__)
    return mod


def test_every_target_is_a_function_or_method_in_the_package():
    tracer = _load_tracer()
    names = set()
    for name, module, path in tracer.TARGETS:
        names.add(name)
        owner = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            assert inspect.isclass(cls), name
            raw = cls.__dict__.get(attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
        else:
            fn = getattr(owner, path, None)
        assert inspect.isfunction(fn), name
        assert os.path.dirname(os.path.abspath(inspect.getfile(fn))) == PACKAGE_DIR, name
    for required in tracer.REQUIRED.values():
        assert set(required) <= names


def test_backend_name_is_a_string():
    assert isinstance(ergoloc.backend_name(), str)


def test_kernel_returns_have_the_shapes_the_tracer_reads():
    rng = np.random.default_rng(0)
    system = random_system(2, 3, rng)
    cost = cost_from_m(system)
    out = kernels.admm_kernel(cost.c, cost.d_s, 1e-7, 100)
    assert isinstance(out, tuple) and len(out) == 6
    assert isinstance(out[4], (int, np.integer)) and out[4] > 0
    out = kernels.ascent_kernel(cost.c, cost.energy, qmat.haar_unitary(2, rng), 50, 1e-9)
    assert isinstance(out, tuple) and len(out) == 5
