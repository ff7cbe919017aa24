// Mini deployment builder: one constructor consults the chiplet grid and
// both backend-erased build paths go through it.
impl DeploymentBuilder {
    pub fn chiplets(mut self, cw: usize, ch: usize) -> Self {
        self.chiplets = Some((cw, ch));
        self
    }

    fn erased_fabric(&self) -> Result<Box<dyn Fabric>, DeployError> {
        match self.chiplets {
            Some((cw, ch)) => Ok(Box::new(ChipletFabric::new(self.mesh, cw, ch))),
            None => self.flat(),
        }
    }

    pub fn build(self) -> Result<Deployment, DeployError> {
        let fabric = self.erased_fabric()?;
        self.finish(fabric)
    }

    pub fn build_controlled(self) -> Result<Deployment, DeployError> {
        let controller = FabricController::new(self.erased_fabric()?);
        self.finish(controller)
    }
}
