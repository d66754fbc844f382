"""Count the options of every command of the command line.

    python3 tools/count_options.py [--root DIR]

Reads the commands off ``cli.COMMANDS``, the command table that
``cli.main`` reads a plain argv from and ``cli.build_parser`` builds the
argparse tree from, and prints one line per command
(``beta mfw``, ``lang``, ...) with the options it takes, then the
totals, then the number of lines in ``src/shiftlab/*.py``, then the
modules of ``shiftlab`` and the modules outside it that ``import
shiftlab.cli`` loads in a fresh ``python3 -c`` process (read in a child,
so this script's own imports hide none).  ``-h``/``--help`` is not counted, and positional arguments
are not options.  DIR (default: the checkout holding this script)
supplies ``src/shiftlab``; nothing is written.
"""

import argparse
import os
import subprocess
import sys

LOADED = ("import sys; before = set(sys.modules); import shiftlab.cli; "
          "print(*sorted(set(sys.modules) - before))")


def loaded_modules(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", LOADED], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=here, help="checkout whose src/ is used")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    from shiftlab import cli

    total = count = 0
    for name, (_, _, arguments) in cli.COMMANDS.items():
        opts = [option for option, _ in arguments if option.startswith("-")]
        print("%-18s %2d  %s" % (" ".join(name), len(opts), " ".join(opts)))
        count += 1
        total += len(opts)
    print("%d commands, %d options" % (count, total))
    package = os.path.join(args.root, "src", "shiftlab")
    lines = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                lines += sum(1 for _ in handle)
    print("%d lines in src/shiftlab" % lines)
    modules = loaded_modules(os.path.join(args.root, "src"))
    inside = [m for m in modules if m.partition(".")[0] == "shiftlab"]
    outside = [m for m in modules if m not in inside]
    print("%d shiftlab modules loaded by import shiftlab.cli: %s"
          % (len(inside), " ".join(inside)))
    print("%d modules outside shiftlab loaded by import shiftlab.cli: %s"
          % (len(outside), " ".join(outside)))


if __name__ == "__main__":
    main()
