#!/usr/bin/env bash
# Fails if the ESSD stack includes the local-SSD model.  Nothing under
# src/{ebs,essd,net,sched,tenant,placement,fleet} may include a header
# from src/ftl, src/ssd or src/flash.
# Usage: scripts/check_layers.sh
set -euo pipefail

cd "$(dirname "$0")/.."

violations=$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"](ftl|ssd|flash)/' \
  src/ebs src/essd src/net src/sched src/tenant src/placement src/fleet || true)
if [[ -n "${violations}" ]]; then
  echo "error: the ESSD stack includes the local-SSD model:" >&2
  echo "${violations}" >&2
  exit 1
fi
echo "layers: no ESSD-stack file includes ftl/, ssd/ or flash/"
