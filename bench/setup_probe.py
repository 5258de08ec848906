"""One cold start of eitcool: interpreter start, `import eitcool`, config loading.

Run as `python3 bench/setup_probe.py <config> ...` with `src` on PYTHONPATH.
Prints {"import_s": ..., "load_config_s": ...} measured inside the process;
the caller times the whole process from outside.
"""

import json
import sys
import time

start = time.perf_counter()
import eitcool  # noqa: E402
from eitcool import scenarios  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[1:]:
    scenarios.load_config(path)
print(json.dumps({"import_s": imported - start,
                  "load_config_s": time.perf_counter() - imported}))
