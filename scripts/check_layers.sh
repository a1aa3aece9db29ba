#!/usr/bin/env bash
# Fails if a layer includes a header it must not depend on:
# - the ESSD stack must not include the local-SSD model: nothing under
#   src/{ebs,essd,net,sched,tenant,placement,fleet} may include a header
#   from src/ftl, src/ssd or src/flash;
# - tenant sits below the fleet engine: nothing under src/tenant may
#   include a header from src/placement or src/fleet;
# - common is the bottom layer: every project header src/common includes
#   is a common/ header.
# Usage: scripts/check_layers.sh
set -euo pipefail

cd "$(dirname "$0")/.."

include='^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]'
status=0

violations=$(grep -rnE "${include}(ftl|ssd|flash)/" \
  src/ebs src/essd src/net src/sched src/tenant src/placement src/fleet || true)
if [[ -n "${violations}" ]]; then
  echo "error: the ESSD stack includes the local-SSD model:" >&2
  echo "${violations}" >&2
  status=1
fi

violations=$(grep -rnE "${include}(placement|fleet)/" src/tenant || true)
if [[ -n "${violations}" ]]; then
  echo "error: src/tenant includes the fleet engine (placement/, fleet/):" >&2
  echo "${violations}" >&2
  status=1
fi

quoted='#[[:space:]]*include[[:space:]]*"'
violations=$(grep -rnE "^[[:space:]]*${quoted}" src/common |
  grep -vE "${quoted}common/" || true)
if [[ -n "${violations}" ]]; then
  echo "error: src/common includes a header outside common/:" >&2
  echo "${violations}" >&2
  status=1
fi

if [[ ${status} -eq 0 ]]; then
  echo "layers: no ESSD-stack file includes ftl/, ssd/ or flash/;" \
    "src/tenant includes no placement/ or fleet/ header;" \
    "src/common includes only common/ headers"
fi
exit "${status}"
