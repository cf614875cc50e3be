#!/usr/bin/env python3
"""Reproduce the two worked instances from the shipped data files.

Prints the character value (fraction and Laurent form), index/coindex,
and the submodule classes with their Euler characteristics for the A4
and D4 modules.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clusterchar.character import cc_value, module_object
from clusterchar.forms import indices
from clusterchar.grassmannian import submodule_classes
from clusterchar.laurent import laurent_render, render_fraction
from clusterchar.modules import load_module_file
from clusterchar.quiver import load_algebra_file

DATA = Path(__file__).resolve().parent.parent / "data"


def show(stem: str, module_file: str) -> None:
    algebra = load_algebra_file(DATA / ("%s.alg" % stem))
    module = load_module_file(DATA / module_file, algebra=algebra)
    names = tuple("x%s" % v for v in algebra.quiver.vertices)
    labels = algebra.quiver.vertices
    value = cc_value(module_object(module))
    print("== %s, module with dims %s ==" % (stem, module.dims))
    print("X        = %s" % render_fraction(value, names))
    print("laurent  = %s" % laurent_render(value, names))
    ind, coind = indices(module)
    print("index    = %s" % (dict(zip(labels, ind)),))
    print("coindex  = %s" % (dict(zip(labels, coind)),))
    for e, chi in submodule_classes(module):
        print("chi(Gr_%s) = %d" % (e, chi))
    print()


if __name__ == "__main__":
    show("a4", "a4_M.mod")
    show("d4", "d4_M.mod")
