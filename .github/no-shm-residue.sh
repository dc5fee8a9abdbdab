#!/bin/sh
# Fail if a process-backend run left a shared-memory ring file (pym-*) or a
# POSIX semaphore (sem.mp-*) in /dev/shm.
left=$(ls /dev/shm | grep -E '^(pym-|sem\.mp-)' || true)
if [ -n "$left" ]; then echo "left in /dev/shm: $left"; exit 1; fi
