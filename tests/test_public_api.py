"""The options of the public functions: every parameter with a default.

A new option is a new way to call the package that every later change must
keep working, so adding one means editing ``OPTIONS`` below.
"""

import inspect

import spectralab

OPTIONS = {
    "make_chart": ["params", "domain", "eta", "tensor"],
    "make_eta": ["params", "expr", "dim"],
    "make_tensor": ["params", "expr", "dim"],
    "solve_sparse": ["maxiter"],
    "check_thm_tensor": ["mode", "quad"],
    "intro_comparators": ["consts"],
    "run_scenario": ["out_dir", "write", "checks"],
}


def test_public_functions_have_only_the_listed_options():
    options = {}
    for name in spectralab.__all__:
        obj = getattr(spectralab, name)
        if inspect.isfunction(obj):
            defaulted = [param.name for param in inspect.signature(obj).parameters.values()
                         if param.default is not inspect.Parameter.empty]
            if defaulted:
                options[name] = defaulted
    assert options == OPTIONS
