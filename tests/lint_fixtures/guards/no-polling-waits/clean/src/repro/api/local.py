"""no-polling-waits clean: a local blocking read waits on the space's
insert condition between probes."""


class LocalSpace:
    def _read(self, template, remaining):
        seen = self._space.inserts
        found = self._peats.rdp(template)
        if found is None:
            self._space.wait_for_insert(seen, remaining)
        return found
